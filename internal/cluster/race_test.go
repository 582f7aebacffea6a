//go:build race

package cluster

// raceEnabled: the race detector slows every simulated step many times
// over, so the largest fleets run at reduced size under -race.
const raceEnabled = true
