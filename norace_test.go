//go:build !race

package zpre

const raceEnabled = false
