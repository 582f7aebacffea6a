package experiments

import (
	"runtime"
	"slices"
	"testing"
)

// Determinism regression: the same seed must reproduce the policy CSV (a
// published artifact) byte for byte, and the root-bytes and drop-sweep
// rows (chaos: the fault plan derives from the seed) field for field,
// run to run and regardless of GOMAXPROCS. None of them carries a host
// wall-clock field.

func policyCSV(t *testing.T, seed int64) string {
	t.Helper()
	r, err := Policy(Options{Quick: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return r.RenderCSV()
}

// chaosRows is a three-rate drop sweep, eight queries per rate.
func chaosRows(t *testing.T, seed int64) []dropRow {
	return dropSweep(t, seed, []float64{0, 0.05, 0.2}, 8)
}

// TestDeterministicCSVAcrossRuns runs each target twice with the same
// seed and requires identical output.
func TestDeterministicCSVAcrossRuns(t *testing.T) {
	t.Run("chaos", func(t *testing.T) {
		if a, b := chaosRows(t, DefaultSeed+11), chaosRows(t, DefaultSeed+11); !slices.Equal(a, b) {
			t.Fatalf("same-seed runs diverged:\n%+v\n%+v", a, b)
		}
	})
	t.Run("policy", func(t *testing.T) {
		if a, b := policyCSV(t, DefaultSeed+11), policyCSV(t, DefaultSeed+11); a != b {
			t.Fatalf("same-seed runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
		}
	})
	t.Run("scale", func(t *testing.T) {
		if a, b := rootBytesRows(t, DefaultSeed+11), rootBytesRows(t, DefaultSeed+11); !slices.Equal(a, b) {
			t.Fatalf("same-seed runs diverged:\n%+v\n%+v", a, b)
		}
	})
}

// TestDeterministicCSVAcrossGOMAXPROCS pins scheduler-independence: the
// simulation is single-threaded by design, so pinning the runtime to one
// P must not change a single field of output.
func TestDeterministicCSVAcrossGOMAXPROCS(t *testing.T) {
	serially := func(run func()) int {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		run()
		return prev
	}
	t.Run("chaos", func(t *testing.T) {
		parallel := chaosRows(t, DefaultSeed+13)
		var serial []dropRow
		prev := serially(func() { serial = chaosRows(t, DefaultSeed+13) })
		if !slices.Equal(parallel, serial) {
			t.Fatalf("GOMAXPROCS=%d vs 1 diverged:\n%+v\n%+v", prev, parallel, serial)
		}
	})
	t.Run("policy", func(t *testing.T) {
		parallel := policyCSV(t, DefaultSeed+13)
		var serial string
		prev := serially(func() { serial = policyCSV(t, DefaultSeed+13) })
		if parallel != serial {
			t.Fatalf("GOMAXPROCS=%d vs 1 diverged:\n--- default ---\n%s--- serial ---\n%s", prev, parallel, serial)
		}
	})
	t.Run("scale", func(t *testing.T) {
		parallel := rootBytesRows(t, DefaultSeed+13)
		var serial []rootBytesRow
		prev := serially(func() { serial = rootBytesRows(t, DefaultSeed+13) })
		if !slices.Equal(parallel, serial) {
			t.Fatalf("GOMAXPROCS=%d vs 1 diverged:\n%+v\n%+v", prev, parallel, serial)
		}
	})
}
