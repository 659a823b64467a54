//go:build race

package zpre

// raceEnabled: the race detector makes sync.Pool drop a random share of
// what is put back, so allocation guards on recycled storage do not hold.
const raceEnabled = true
