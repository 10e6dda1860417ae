//go:build !race

package onion

const raceEnabled = false
