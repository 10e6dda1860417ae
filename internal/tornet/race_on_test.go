//go:build race

package tornet

const raceEnabled = true
