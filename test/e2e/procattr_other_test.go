//go:build !linux

package e2e

import "syscall"

// childAttr: only Linux can tie a child's life to its parent's.
func childAttr() *syscall.SysProcAttr { return nil }
