package e2e

import "syscall"

// childAttr has the kernel SIGKILL each mvgcd if the test process dies
// before its cleanup runs.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
