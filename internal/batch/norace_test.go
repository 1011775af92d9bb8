//go:build !race

package batch

const raceEnabled = false
