//go:build !race

package pathsel

const raceEnabled = false
