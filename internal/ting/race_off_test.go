//go:build !race

package ting

const raceEnabled = false
