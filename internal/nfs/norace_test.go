//go:build !race

package nfs

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
