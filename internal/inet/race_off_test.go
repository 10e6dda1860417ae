//go:build !race

package inet

const raceEnabled = false
