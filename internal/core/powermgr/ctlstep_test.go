package powermgr

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
)

// TestFleetSumInJobIDOrder pins the fleet sums to job-id order. The three
// jobs' watts sum to 10253.099999999999 in job-id order and to 10253.1 in
// four of the six other orders, so a sum in map order reads the fleet one
// ULP apart from run to run. The budgets below sit exactly on the
// id-order sums: in another order the controller would see 1.8e-12 W of
// overshoot and quantize job 3's raise one watt lower, and admission would
// turn a job that fits at peak into a proportional redistribution.
func TestFleetSumInJobIDOrder(t *testing.T) {
	caps := []float64{809.2, 1321.7, 920.3}
	nodes := []int{5, 4, 1}
	idOrder, reverse := 0.0, 0.0
	for i := range caps {
		idOrder += caps[i] * float64(nodes[i])
		k := len(caps) - 1 - i
		reverse += caps[k] * float64(nodes[k])
	}
	if idOrder == reverse {
		t.Fatal("caps do not make the sum depend on its order")
	}
	node, err := hw.NewNode("n0", hw.LassenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const raised = 1120 // 920.3 + MaxStepW, quantized down to the 1 W grid
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		m := New(Config{Policy: PolicyProportional, Controller: ControllerConfig{Mode: ControllerRetune}})
		m.node = node
		for _, i := range order {
			m.allocs[uint64(i+1)] = &Allocation{JobID: uint64(i + 1), Ranks: make([]int32, nodes[i]), PerNodeW: caps[i]}
		}
		for round := 0; round < 32; round++ {
			jobs := m.snapshotLocked(map[uint64][]float64{3: {5000}})
			lim := m.limitsLocked()
			lim.budgetW = idOrder + (raised - caps[2])
			next, fleet := ctlStep(jobs, lim, ctlFleet{})
			if got := next[2].capW; got != raised {
				t.Fatalf("order %v round %d: job 3 capped at %v W, want %v W", order, round, got, float64(raised))
			}
			want := ctlFleet{rounds: 1, retunes: 1, violations: 1, grantedW: raised - caps[2]}
			if fleet != want {
				t.Fatalf("order %v round %d: fleet %+v, want %+v", order, round, fleet, want)
			}
			lim.budgetW = idOrder + lim.peakW*2
			if !admitsAtPeak(jobs, lim, 2) {
				t.Fatalf("order %v round %d: a job that fits at peak was not admitted", order, round)
			}
		}
	}
}

// TestCtlStepClosedLoop iterates the control law against hw.Node plants
// without a cluster: each round enforces the caps through the node-level
// manager's own path (backstop node cap plus derived per-GPU caps), reads
// every node, and feeds the per-job means to ctlStep. One job demands
// more than its share and one leaves slack, under a budget that cannot
// cover both. A node cap alone would not do as the plant: IBM's derived
// GPU cap holds the draw under the cap, so no job would look
// throttled.
//
// The slack job is checked against the draw it shows under the cap it
// was given, the controller's own violation test. It is not checked
// against its 900 W demand: the integrator it wound up while its slack
// was reclaimed keeps cutting once the GPU caps throttle it, because a
// job whose non-GPU draw is 40 W under the idle reserve then reads zero
// error, and the law drives it to the floor (800 W cap, 760 W draw).
func TestCtlStepClosedLoop(t *testing.T) {
	const (
		perJob  = 2
		budgetW = 4 * 1100
		rounds  = 500
	)
	// Throttled: 4×280 W GPUs, 2×150 W CPUs, 100 W memory, 100 W uncore
	// = 1620 W/node. Slack: 4×135 + 2×100 + 60 + 100 = 900 W/node.
	demands := []hw.Demand{
		{CPUW: []float64{150, 150}, MemW: 100, GPUW: []float64{280, 280, 280, 280}},
		{CPUW: []float64{100, 100}, MemW: 60, GPUW: []float64{135, 135, 135, 135}},
	}
	const slackDemandW = 900
	plants := make([][]*Manager, len(demands))
	for j, d := range demands {
		for k := 0; k < perJob; k++ {
			n, err := hw.NewNode("n", hw.LassenConfig(), int64(j*perJob+k))
			if err != nil {
				t.Fatal(err)
			}
			n.SetDemand(d)
			p := New(Config{})
			p.node = n
			plants[j] = append(plants[j], p)
		}
	}
	lim := plants[0][0].limitsLocked()
	lim.mode, lim.budgetW = ControllerRetune, budgetW
	jobs := evenSplit([]ctlJob{{id: 1, nodes: perJob}, {id: 2, nodes: perJob}}, lim)
	startW := jobs[0].capW
	var fleet ctlFleet
	var r hw.Reading
	began := time.Now()
	for round := 0; round < rounds; round++ {
		for j := range jobs {
			jobs[j].obsW, jobs[j].obsN = 0, perJob
			for _, p := range plants[j] {
				if err := p.enforceLocked(jobs[j].capW, PolicyProportional); err != nil {
					t.Fatal(err)
				}
				p.node.ReadInto(simtime.Time(round)*simtime.Time(4*time.Second), &r)
				jobs[j].obsW += r.TotalMeasuredW() / perJob
			}
		}
		if slack := jobs[1]; slack.obsW > slack.capW+ctlMarginW {
			t.Fatalf("round %d: slack job cut to %.1f W, below its %.1f W draw plus the %d W margin",
				round, slack.capW, slack.obsW, ctlMarginW)
		}
		jobs, fleet = ctlStep(jobs, lim, fleet)
		if got := fleetW(jobs); got > budgetW {
			t.Fatalf("round %d: fleet caps %.3f W over the %d W budget", round, got, budgetW)
		}
	}
	elapsed := time.Since(began)
	if jobs[0].capW <= startW {
		t.Fatalf("throttled job ended at %.1f W, started at %.1f W", jobs[0].capW, startW)
	}
	t.Logf("%d rounds in %v (%.0f rounds/s): throttled %.0f → %.0f W, slack (demand %d W) %.0f → %.0f W, %d retunes",
		rounds, elapsed, rounds/elapsed.Seconds(), startW, jobs[0].capW, slackDemandW, startW, jobs[1].capW, fleet.retunes)
}

// fuzzReader turns fuzz bytes into bounded values; it reads zeros once
// the input runs out.
type fuzzReader []byte

func (f *fuzzReader) u16() uint16 {
	if len(*f) < 2 {
		*f = nil
		return 0
	}
	v := binary.LittleEndian.Uint16(*f)
	*f = (*f)[2:]
	return v
}

// in returns a value in [lo, hi].
func (f *fuzzReader) in(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(f.u16())/math.MaxUint16
}

// ctlCase builds a control round from fuzz bytes: limits around a Lassen
// node, up to eight jobs with caps anywhere in [0, peak] (an even split
// leaves them off the grid, a cut can leave them under the floor),
// observations from idle to far above peak, and controller state
// mid-flight.
func ctlCase(data []byte) ([]ctlJob, ctlLimits, ctlFleet) {
	f := fuzzReader(data)
	lim := ctlLimits{
		dt:        f.in(0.5, 10),
		floorW:    f.in(0, 1500),
		quantumW:  []float64{1, 4, 20, 40, 100}[f.u16()%5],
		mode:      []string{ControllerObserve, ControllerRetune}[f.u16()%2],
		kp:        f.in(0.01, 2),
		ki:        f.in(0, 0.5),
		headroomW: f.in(0, 200),
		maxStepW:  f.in(1, 500),
	}
	lim.peakW = lim.floorW + f.in(0, 3000)
	jobs := make([]ctlJob, 1+f.u16()%8)
	nodes := 0
	for i := range jobs {
		j := &jobs[i]
		j.id = uint64(i + 1)
		j.nodes = 1 + int(f.u16()%64)
		nodes += j.nodes
		if f.u16()%8 != 0 {
			j.capW = f.in(0, lim.peakW)
		}
		if f.u16()%4 != 0 {
			j.obsN = 1 + int(f.u16()%4)
			j.obsW = f.in(0, 1.5*lim.peakW)
		}
		j.st = ctlState{
			consecutive: int(f.u16() % 5),
			integ:       f.in(-5000, 5000),
			violations:  uint64(f.u16() % 10),
		}
	}
	if f.u16()%4 != 0 {
		lim.budgetW = f.in(0, 1.2) * lim.peakW * float64(nodes)
	}
	fleet := ctlFleet{rounds: uint64(f.u16()), reclaimedW: f.in(0, 1e6), grantedW: f.in(0, 1e6)}
	return jobs, lim, fleet
}

// ctlRelEps is the relative slack allowed on fleet sums: the law's sums
// round differently from the check's.
const ctlRelEps = 1e-9

// checkCtlStep holds one round of the control law to its invariants.
func checkCtlStep(t *testing.T, jobs []ctlJob, lim ctlLimits, fleet ctlFleet) {
	t.Helper()
	in := slices.Clone(jobs)
	next, out := ctlStep(jobs, lim, fleet)
	if !slices.Equal(jobs, in) {
		t.Fatal("ctlStep wrote to its input")
	}
	again, out2 := ctlStep(jobs, lim, fleet)
	if !slices.Equal(next, again) || out != out2 {
		t.Fatal("ctlStep is not deterministic")
	}
	if len(next) != len(jobs) {
		t.Fatalf("%d jobs in, %d out", len(jobs), len(next))
	}
	if out.rounds != fleet.rounds+1 {
		t.Fatalf("rounds %d → %d", fleet.rounds, out.rounds)
	}
	if out.reclaimedW < fleet.reclaimedW || out.grantedW < fleet.grantedW {
		t.Fatalf("watt totals went down: %+v → %+v", fleet, out)
	}

	// Fleet caps leaving ≤ max(fleet caps entering, budget).
	if lim.budgetW > 0 {
		before, after := fleetW(jobs), fleetW(next)
		if bound := max(before, lim.budgetW); after > bound*(1+ctlRelEps) {
			t.Fatalf("fleet %.6f W → %.6f W, over max(entering, budget %.6f W)", before, after, lim.budgetW)
		}
	}

	moved := 0
	for i, j := range next {
		old := jobs[i]
		if j.id != old.id || j.nodes != old.nodes || j.obsW != old.obsW || j.obsN != old.obsN {
			t.Fatalf("job %d: identity or observation changed: %+v → %+v", old.id, old, j)
		}
		if j.capW > lim.peakW {
			t.Fatalf("job %d: cap %v W above peak %v W", j.id, j.capW, lim.peakW)
		}
		if j.capW != old.capW {
			moved++
			if floor := min(lim.floorW, old.capW); j.capW < floor*(1-ctlRelEps) {
				t.Fatalf("job %d: cap %v → %v W, below min(floor %v, old cap)", j.id, old.capW, j.capW, lim.floorW)
			}
		}
		if lim.mode != ControllerRetune || old.obsN == 0 {
			if j.capW != old.capW || j.st.integ != old.st.integ || j.st.retunes != old.st.retunes {
				t.Fatalf("job %d: moved without a retune: %+v → %+v", j.id, old, j)
			}
			continue
		}
		// Conditional integration: the integrator moves only in the
		// error's direction, and only when the output was neither
		// saturated that way nor held back by reclaim or budget repair.
		if d := j.st.integ - old.st.integ; d != 0 {
			e := old.obsW + lim.headroomW - old.capW
			step := max(-lim.maxStepW, min(lim.kp*e+lim.ki*old.st.integ, lim.maxStepW))
			raw := old.capW + step
			own := quantizeDown(max(lim.floorW, min(raw, lim.peakW)), lim)
			switch {
			case (d > 0) != (e > 0):
				t.Fatalf("job %d: integrator moved %v against error %v", j.id, d, e)
			case d > 0 && raw > lim.peakW, d < 0 && raw < lim.floorW:
				t.Fatalf("job %d: integrator moved %v into a saturated output (raw %v)", j.id, d, raw)
			case j.capW != own:
				t.Fatalf("job %d: integrator moved %v though the cap %v was held back from %v", j.id, d, j.capW, own)
			}
		}
	}
	if got := out.retunes - fleet.retunes; got != uint64(moved) {
		t.Fatalf("%d caps moved, %d retunes counted", moved, got)
	}
}

// FuzzCtlStep holds the control law to its invariants over fuzzer-chosen
// rounds: fleet caps never grow past max(entering, budget); no cap above
// peak; a moved cap never lands below min(floor, old cap); the integrator
// never winds into a saturated or held-back output; observe mode moves
// nothing; and the step is deterministic and leaves its input alone.
func FuzzCtlStep(f *testing.F) {
	for seed := uint16(1); seed <= 8; seed++ {
		data := make([]byte, 256)
		for i := range data {
			data[i] = byte(uint16(i)*seed*37 + seed)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, lim, fleet := ctlCase(data)
		checkCtlStep(t, jobs, lim, fleet)
	})
}
