package fpp

import (
	"math"
	"testing"

	"fluxpower/internal/fft"
	"fluxpower/internal/hw"
	"fluxpower/internal/variorum"
)

func feedWave(c *Controller, periodSec float64, seconds int) {
	// 2 s samples of a 300/700 W square wave with the given period.
	n := seconds / 2
	w := fft.SquareWave(n, 2.0, periodSec, 0.5, 300, 700, 0)
	for _, v := range w {
		c.Observe(v)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, 0); err == nil {
		t.Fatal("zero limit accepted")
	}
	c, err := New(Config{}, 250)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cap() != 250 {
		t.Fatalf("initial cap %v, want min(300, 250)", c.Cap())
	}
	// Limit above vendor max clamps to 300 (line 37).
	c2, _ := New(Config{}, 500)
	if c2.Cap() != 300 {
		t.Fatalf("initial cap %v, want 300", c2.Cap())
	}
	// Limit below vendor min clamps up.
	c3, _ := New(Config{}, 50)
	if c3.Cap() != 100 {
		t.Fatalf("initial cap %v, want 100", c3.Cap())
	}
}

func TestStablePeriodConverges(t *testing.T) {
	// Quicksilver under a harmless cap: the period never moves, so FPP
	// records once, then converges ("FPP converges early", §IV-D). Run
	// with the prose semantics (PersistConvergence) so convergence also
	// freezes the cap.
	c, _ := New(Config{PersistConvergence: true}, 200)
	feedWave(c, 12, 90)
	cap1, changed := c.Interval()
	if changed || cap1 != 200 {
		t.Fatalf("first interval: cap=%v changed=%v", cap1, changed)
	}
	if c.Converged() {
		t.Fatal("converged before a second estimate")
	}
	feedWave(c, 12, 90)
	cap2, changed := c.Interval()
	if changed || cap2 != 200 {
		t.Fatalf("second interval: cap=%v changed=%v", cap2, changed)
	}
	if !c.Converged() {
		t.Fatal("stable period did not converge")
	}
	// Once converged, adjustments cease even if the period moves.
	feedWave(c, 30, 90)
	cap3, changed := c.Interval()
	if changed || cap3 != 200 {
		t.Fatalf("post-convergence adjustment: cap=%v changed=%v", cap3, changed)
	}
}

func TestLiteralListingKeepsExploring(t *testing.T) {
	// Default semantics follow the paper's listing: F_converge does not
	// latch, so a period move after an apparent convergence still
	// adjusts the cap. Start from a reduced cap so the increase is
	// observable (not clamped at the limit).
	c, _ := New(Config{}, 300)
	c.capCur = 150
	feedWave(c, 12, 90)
	c.Interval()
	feedWave(c, 12, 90)
	c.Interval() // |Δ|≈0: reports converged, keeps cap
	if !c.Converged() {
		t.Fatal("stable period should report converged")
	}
	feedWave(c, 30, 90) // period stretches: must react (+25)
	capW, changed := c.Interval()
	if !changed || capW != 175 {
		t.Fatalf("literal listing froze: cap=%v changed=%v, want 175", capW, changed)
	}
	if c.Converged() {
		t.Fatal("converged flag should clear after an adjustment")
	}
}

func TestSlightPeriodShrinkReducesPower(t *testing.T) {
	// Period shrinking by 2-5 s: the app got faster than expected —
	// reclaim 50 W (line 26).
	c, _ := New(Config{}, 300)
	feedWave(c, 16, 90)
	c.Interval()
	feedWave(c, 12.5, 90) // ΔT ≈ -3.5 s
	capW, changed := c.Interval()
	if !changed || capW != 250 {
		t.Fatalf("cap=%v changed=%v, want 250", capW, changed)
	}
	if c.Converged() {
		t.Fatal("should not be converged after a reduction")
	}
}

func TestPeriodGrowthReturnsPower(t *testing.T) {
	// A stretched period means the cap hurts: increase, stepped by how
	// far the period moved (line 28).
	cases := []struct {
		p1, p2   float64
		wantStep float64
	}{
		{12, 15, 10}, // |Δ|=3 → levels[0] ... wait Δ>0 and |Δ|=3 → idx 0
		{12, 18, 15}, // |Δ|=6 → idx 1
		{12, 30, 25}, // |Δ|=18 → idx 2
	}
	for _, tc := range cases {
		c, _ := New(Config{}, 200)
		c.capCur = 150 // pretend an earlier reduction happened
		feedWave(c, tc.p1, 90)
		c.Interval()
		feedWave(c, tc.p2, 90)
		capW, changed := c.Interval()
		want := 150 + tc.wantStep
		if !changed || math.Abs(capW-want) > 1e-9 {
			t.Fatalf("p %v→%v: cap=%v, want %v", tc.p1, tc.p2, capW, want)
		}
	}
}

func TestIncreaseClampedToGPUPowerLim(t *testing.T) {
	c, _ := New(Config{}, 200)
	c.capCur = 195
	feedWave(c, 12, 90)
	c.Interval()
	feedWave(c, 30, 90) // big stretch → +25
	capW, _ := c.Interval()
	if capW != 200 {
		t.Fatalf("cap=%v, want clamp at limit 200", capW)
	}
}

func TestReduceClampedToVendorMin(t *testing.T) {
	c, _ := New(Config{}, 300)
	c.capCur = 110
	feedWave(c, 16, 90)
	c.Interval()
	feedWave(c, 12.5, 90) // -3.5 s → reduce 50 → would be 60
	capW, _ := c.Interval()
	if capW != 100 {
		t.Fatalf("cap=%v, want vendor minimum 100", capW)
	}
}

func TestFlatSignalWithoutNoiseConverges(t *testing.T) {
	// A constant power draw yields no period estimate: treated as "period
	// unchanged", the controller converges and leaves the cap alone.
	c, _ := New(Config{}, 250)
	for i := 0; i < 45; i++ {
		c.Observe(1500)
	}
	c.Interval()
	for i := 0; i < 45; i++ {
		c.Observe(1500)
	}
	capW, changed := c.Interval()
	if changed || capW != 250 || !c.Converged() {
		t.Fatalf("flat signal: cap=%v changed=%v converged=%v", capW, changed, c.Converged())
	}
}

func TestNoisyFlatSignalEventuallyGivesPowerBack(t *testing.T) {
	// GEMM's story (§IV-D): noise-driven period estimates jump around, so
	// any reduction is followed by increases once |Δ| exceeds the change
	// threshold. Run many intervals; the cap must never walk to the floor
	// and stay there — the controller hands power back.
	c, _ := New(Config{}, 250)
	seed := uint64(99)
	sawReduce, sawIncreaseAfterReduce := false, false
	reduced := false
	for interval := 0; interval < 40 && !c.Converged(); interval++ {
		for i := 0; i < 45; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			noise := float64(seed>>11)/float64(1<<53)*60 - 30
			c.Observe(1400 + noise)
		}
		before := c.Cap()
		after, _ := c.Interval()
		if after < before {
			sawReduce = true
			reduced = true
		}
		if reduced && after > before {
			sawIncreaseAfterReduce = true
		}
	}
	if sawReduce && !sawIncreaseAfterReduce && c.Cap() <= 150 {
		t.Fatalf("controller walked the cap down to %v and never recovered", c.Cap())
	}
}

func TestSetLimitResets(t *testing.T) {
	c, _ := New(Config{}, 200)
	feedWave(c, 12, 90)
	c.Interval()
	feedWave(c, 12, 90)
	c.Interval()
	if !c.Converged() {
		t.Fatal("setup should converge")
	}
	c.SetLimit(300)
	if c.Converged() || c.Cap() != 300 {
		t.Fatalf("SetLimit reset: cap=%v converged=%v", c.Cap(), c.Converged())
	}
	c.SetLimit(0) // ignored
	if c.Cap() != 300 {
		t.Fatal("zero limit should be ignored")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	if convergeThSec != 2 || changeThSec != 5 || pReduceW != 50 {
		t.Fatalf("thresholds: %v %v %v", convergeThSec, changeThSec, pReduceW)
	}
	d := Config{}.withDefaults()
	if d.MaxGPUCapW != 300 || d.MinGPUCapW != 100 || CapIntervalSec != 90 {
		t.Fatalf("caps: %+v, interval %v", d, CapIntervalSec)
	}
}

// TestDeviceAgnosticSocketControl backs the paper's claim that FPP "is
// device-agnostic from a logistical perspective, and can be easily
// extended to be utilized for socket-level ... power capping" (§III-B2):
// the same controller, configured with the Power9 socket power range,
// drives Variorum socket caps from CPU power telemetry.
func TestDeviceAgnosticSocketControl(t *testing.T) {
	node, err := hw.NewNode("sock", hw.LassenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		MaxGPUCapW: 350, // socket maximum on the AC922
		MinGPUCapW: 60,  // socket minimum
	}
	ctrl, err := New(cfg, 250) // node-level limit share for this socket
	if err != nil {
		t.Fatal(err)
	}
	if err := variorum.CapSocketPowerLimit(node, 0, ctrl.Cap()); err != nil {
		t.Fatal(err)
	}
	if node.SocketCap(0) != 250 {
		t.Fatalf("initial socket cap %v", node.SocketCap(0))
	}
	// A periodic CPU-bound phase signal (e.g. a Charm++ solver alternating
	// compute and communication) with a stable period: the controller
	// converges and the cap holds, exactly as on a GPU.
	for interval := 0; interval < 3; interval++ {
		for _, w := range fft.SquareWave(45, 2.0, 16.0, 0.5, 100, 240, 0) {
			ctrl.Observe(w)
		}
		capW, changed := ctrl.Interval()
		if changed {
			if err := variorum.CapSocketPowerLimit(node, 0, capW); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !ctrl.Converged() {
		t.Fatal("socket controller did not converge on a stable period")
	}
	if node.SocketCap(0) != 250 {
		t.Fatalf("socket cap moved on a stable workload: %v", node.SocketCap(0))
	}
	// A shrinking period triggers a 50 W reduction, enforced on the socket.
	for _, w := range fft.SquareWave(45, 2.0, 12.5, 0.5, 100, 240, 0) {
		ctrl.Observe(w)
	}
	// Not converged-latched (literal listing): ΔT ≈ -3.5 s → reduce.
	capW, changed := ctrl.Interval()
	if !changed || capW != 200 {
		t.Fatalf("socket reduction: cap=%v changed=%v, want 200", capW, changed)
	}
	if err := variorum.CapSocketPowerLimit(node, 0, capW); err != nil {
		t.Fatal(err)
	}
	node.SetDemand(hw.Demand{CPUW: []float64{240, 240}, MemW: 60, GPUW: []float64{35, 35, 35, 35}})
	act := node.Actual()
	if act.CPUW[0] != 200 || !act.CPULimited[0] {
		t.Fatalf("socket cap not enforced: %v limited=%v", act.CPUW[0], act.CPULimited[0])
	}
}
