//go:build !race

package otrace

const raceEnabled = false
