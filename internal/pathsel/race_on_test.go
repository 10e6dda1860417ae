//go:build race

package pathsel

const raceEnabled = true
