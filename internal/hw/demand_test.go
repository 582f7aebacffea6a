package hw

import (
	"math"
	"math/rand"
	"testing"
)

// referenceActual is the allocate-per-call enforcement SetDemand and
// applyDemand used before they wrote into node-owned storage, kept as
// the oracle: fresh slices, flags starting false, same arithmetic in the
// same order. d is the caller's demand, before the idle-floor clamp.
func referenceActual(n *Node, d Demand) Actual {
	cfg := n.cfg
	cpu := make([]float64, cfg.Sockets)
	gpu := make([]float64, cfg.GPUs)
	for i := range cpu {
		cpu[i] = cfg.CPUIdleW
		if d.CPUW != nil && d.CPUW[i] > cfg.CPUIdleW {
			cpu[i] = d.CPUW[i]
		}
	}
	for i := range gpu {
		gpu[i] = cfg.GPUIdleW
		if d.GPUW != nil && d.GPUW[i] > cfg.GPUIdleW {
			gpu[i] = d.GPUW[i]
		}
	}
	act := Actual{
		CPUW:       make([]float64, cfg.Sockets),
		GPUW:       make([]float64, cfg.GPUs),
		GPULimited: make([]bool, cfg.GPUs),
		CPULimited: make([]bool, cfg.Sockets),
		MemW:       math.Max(d.MemW, cfg.MemIdleW),
		UncoreW:    cfg.UncoreW,
	}
	gpuTotal := 0.0
	for i := range act.GPUW {
		w := gpu[i]
		if cap := n.EffectiveGPUCap(i); w > cap {
			w = cap
			act.GPULimited[i] = true
		}
		if w < cfg.GPUIdleW {
			w = cfg.GPUIdleW
		}
		act.GPUW[i] = w
		gpuTotal += w
	}
	cpuBudget := -1.0
	if cfg.NodeCapSupported && n.nodeCapW > 0 {
		cpuBudget = n.nodeCapW - gpuTotal - act.MemW - act.UncoreW
	}
	for i := range act.CPUW {
		w := cpu[i]
		if cap := n.cpuCapW[i]; cap > 0 && w > cap {
			w = cap
			act.CPULimited[i] = true
		}
		if cpuBudget >= 0 {
			share := cpuBudget / float64(cfg.Sockets)
			if share < cfg.CPUIdleW {
				share = cfg.CPUIdleW
			}
			if w > share {
				w = share
				act.CPULimited[i] = true
			}
		}
		act.CPUW[i] = w
	}
	total := act.MemW + act.UncoreW + gpuTotal
	for _, w := range act.CPUW {
		total += w
	}
	act.NodeW = total
	return act
}

func sameActual(a, b Actual) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	flags := func(x, y []bool) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return same(a.CPUW, b.CPUW) && same(a.GPUW, b.GPUW) &&
		flags(a.GPULimited, b.GPULimited) && flags(a.CPULimited, b.CPULimited) &&
		math.Float64bits(a.MemW) == math.Float64bits(b.MemW) &&
		math.Float64bits(a.UncoreW) == math.Float64bits(b.UncoreW) &&
		math.Float64bits(a.NodeW) == math.Float64bits(b.NodeW)
}

// TestSetDemandMatchesReference drives a seeded sequence of demands and
// cap changes through nodes of every architecture: after each step the
// in-place result must equal the allocate-per-call reference bit for
// bit, stale limit flags included, and the caller's demand slices must
// be untouched.
func TestSetDemandMatchesReference(t *testing.T) {
	for _, cfg := range []Config{LassenConfig(), TiogaConfig(), GenericX86Config()} {
		cfg.GPUCapFailureProb = 0.2
		n := mustNode(t, cfg)
		rng := rand.New(rand.NewSource(7))
		var last Demand // what the application last asked for
		watts := func(k int, hi float64) []float64 {
			if rng.Intn(8) == 0 {
				return nil
			}
			out := make([]float64, k)
			for i := range out {
				out[i] = rng.Float64() * hi // below the idle floor now and then
			}
			return out
		}
		for step := 0; step < 3000; step++ {
			switch rng.Intn(7) {
			case 0, 1, 2:
				last = Demand{CPUW: watts(cfg.Sockets, 320), MemW: rng.Float64() * 120, GPUW: watts(cfg.GPUs, 320)}
				keep := Demand{CPUW: append([]float64(nil), last.CPUW...), MemW: last.MemW, GPUW: append([]float64(nil), last.GPUW...)}
				n.SetDemand(last)
				for i := range keep.CPUW {
					if last.CPUW[i] != keep.CPUW[i] {
						t.Fatalf("%s step %d: SetDemand wrote into the caller's CPUW", cfg.Arch, step)
					}
				}
				for i := range keep.GPUW {
					if last.GPUW[i] != keep.GPUW[i] {
						t.Fatalf("%s step %d: SetDemand wrote into the caller's GPUW", cfg.Arch, step)
					}
				}
			case 3:
				last = Demand{}
				n.SetIdle()
			case 4:
				_ = n.SetNodeCap([]float64{0, 500, 1200, 1950, 3050}[rng.Intn(5)]) // ErrCapNotEnabled off Lassen
			case 5:
				if cfg.GPUs > 0 {
					_ = n.SetGPUCap(rng.Intn(cfg.GPUs), []float64{0, 100, 150, 250, 300}[rng.Intn(5)])
				}
			case 6:
				_ = n.SetSocketCap(rng.Intn(cfg.Sockets), []float64{0, 80, 120, 250}[rng.Intn(4)])
			}
			if got, want := n.Actual(), referenceActual(n, last); !sameActual(got, want) {
				t.Fatalf("%s step %d:\n got %+v\nwant %+v", cfg.Arch, step, got, want)
			}
		}
	}
}

// TestSetDemandAllocFree pins the per-tick path — SetDemand, SetIdle and
// a cap change, each followed by Actual — at zero allocations.
func TestSetDemandAllocFree(t *testing.T) {
	n := mustNode(t, LassenConfig())
	d := Demand{CPUW: []float64{150, 160}, MemW: 80, GPUW: []float64{200, 210, 220, 230}}
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		n.SetDemand(d)
		sink += n.Actual().NodeW
		n.SetDemand(Demand{MemW: 70}) // nil slices mean idle
		_ = n.SetNodeCap(1200)
		n.SetIdle()
		_ = n.SetNodeCap(0)
		sink += n.Actual().NodeW
	})
	if allocs != 0 {
		t.Fatalf("demand path allocates %v times per run, want 0", allocs)
	}
}
