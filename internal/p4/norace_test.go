//go:build !race

package p4

const raceEnabled = false
