//go:build !race

package tornet

const raceEnabled = false
