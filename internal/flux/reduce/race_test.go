//go:build race

package reduce

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation counts are not stable under -race.
const raceEnabled = true
