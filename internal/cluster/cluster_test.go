package cluster

import (
	"math"
	"runtime"
	"testing"
	"time"

	"fluxpower/internal/flux/job"
	"fluxpower/internal/simtime"
)

func newLassen(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(Config{System: Lassen, Nodes: nodes, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{System: Lassen, Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New(Config{System: "summit", Nodes: 2}); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	c := newLassen(t, 4)
	id, err := c.Submit(job.Spec{App: "laghos", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, idle := c.RunUntilIdle(2 * time.Minute)
	if !idle {
		t.Fatal("job never finished")
	}
	st, ok := c.Stats(id)
	if !ok {
		t.Fatal("no stats")
	}
	// Laghos reference: 12.55 s at full power (±tick granularity).
	if math.Abs(st.ExecSec()-12.55) > 0.5 {
		t.Fatalf("laghos exec time %.2f s, want ~12.55", st.ExecSec())
	}
	if math.Abs(st.AvgNodePowerW-472.91) > 20 {
		t.Fatalf("laghos avg node power %.1f W, want ~473", st.AvgNodePowerW)
	}
	if st.EnergyPerNodeJ < 5000 || st.EnergyPerNodeJ > 7000 {
		t.Fatalf("laghos energy/node %.0f J, want ~5.9 kJ", st.EnergyPerNodeJ)
	}
}

func TestIdleNodesDrawIdlePower(t *testing.T) {
	c := newLassen(t, 4)
	c.RunFor(time.Second)
	want := c.Node(0).IdlePowerW() * 4
	if math.Abs(c.TotalPowerW()-want) > 1 {
		t.Fatalf("idle cluster power %.0f, want %.0f", c.TotalPowerW(), want)
	}
}

func TestTwoJobsShareCluster(t *testing.T) {
	c := newLassen(t, 8)
	gemm, err := c.Submit(job.Spec{App: "gemm", Nodes: 6, RepFactor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := c.Submit(job.Spec{App: "quicksilver", Nodes: 2, SizeFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.RunningJobs()); got != 2 {
		t.Fatalf("%d jobs running, want 2", got)
	}
	_, idle := c.RunUntilIdle(10 * time.Minute)
	if !idle {
		t.Fatal("jobs never drained")
	}
	gs, _ := c.Stats(gemm)
	qss, _ := c.Stats(qs)
	if gs.ExecSec() <= 0 || qss.ExecSec() <= 0 {
		t.Fatalf("exec times: gemm=%v qs=%v", gs.ExecSec(), qss.ExecSec())
	}
	// GEMM's nodes are 0-5, Quicksilver's 6-7 (FCFS lowest-first).
	if gs.Ranks[0] != 0 || qss.Ranks[0] != 6 {
		t.Fatalf("allocations: gemm=%v qs=%v", gs.Ranks, qss.Ranks)
	}
}

func TestQueuedJobStartsWhenNodesFree(t *testing.T) {
	c := newLassen(t, 2)
	a, _ := c.Submit(job.Spec{App: "laghos", Nodes: 2})
	b, _ := c.Submit(job.Spec{App: "laghos", Nodes: 2})
	_, idle := c.RunUntilIdle(5 * time.Minute)
	if !idle {
		t.Fatal("queue never drained")
	}
	sa, _ := c.Stats(a)
	sb, _ := c.Stats(b)
	if sb.StartSec < sa.EndSec-0.2 {
		t.Fatalf("job b started at %.1f before a ended at %.1f", sb.StartSec, sa.EndSec)
	}
}

func TestUnknownAppFailsFast(t *testing.T) {
	c := newLassen(t, 2)
	id, err := c.Submit(job.Spec{App: "doom", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	rec, err := c.JM.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != job.StateInactive {
		t.Fatalf("unknown-app job state %s", rec.State)
	}
}

func TestTiogaClusterMeasuredPower(t *testing.T) {
	c, err := New(Config{System: Tioga, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Submit(job.Spec{App: "lammps", Nodes: 4})
	_, idle := c.RunUntilIdle(3 * time.Minute)
	if !idle {
		t.Fatal("lammps on tioga never finished")
	}
	st, _ := c.Stats(id)
	// Table II: 51.00 s, 1552.40 W (conservative CPU+OAM estimate).
	if math.Abs(st.ExecSec()-51.0) > 2 {
		t.Fatalf("tioga lammps exec %.2f s, want ~51", st.ExecSec())
	}
	if math.Abs(st.AvgNodePowerW-1552.4) > 60 {
		t.Fatalf("tioga lammps power %.1f W, want ~1552", st.AvgNodePowerW)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() (float64, float64) {
		c, err := New(Config{System: Lassen, Nodes: 4, Seed: 7, Jitter: true, SensorNoiseW: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		id, _ := c.Submit(job.Spec{App: "quicksilver", Nodes: 2})
		c.RunUntilIdle(2 * time.Minute)
		st, _ := c.Stats(id)
		return st.ExecSec(), st.EnergyPerNodeJ
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("same-seed runs diverged: (%v,%v) vs (%v,%v)", t1, e1, t2, e2)
	}
}

func TestJitterIsReproducibleButVariesAcrossSeeds(t *testing.T) {
	exec := func(seed int64) float64 {
		c, err := New(Config{System: Lassen, Nodes: 2, Seed: seed, Jitter: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		id, _ := c.Submit(job.Spec{App: "quicksilver", Nodes: 2})
		c.RunUntilIdle(2 * time.Minute)
		st, _ := c.Stats(id)
		return st.ExecSec()
	}
	times := map[float64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		times[exec(seed)] = true
	}
	if len(times) < 3 {
		t.Fatalf("jitter produced only %d distinct runtimes across 8 seeds", len(times))
	}
}

func TestRunUntilIdleTimesOut(t *testing.T) {
	c := newLassen(t, 2)
	if _, err := c.Submit(job.Spec{App: "gemm", Nodes: 2}); err != nil { // ~274 s job
		t.Fatal(err)
	}
	at, idle := c.RunUntilIdle(5 * time.Second)
	if idle {
		t.Fatal("long job reported idle early")
	}
	if at < simtime.Time(5*time.Second) {
		t.Fatalf("stopped at %v before limit", at)
	}
}

func TestStatsUnknownJob(t *testing.T) {
	c := newLassen(t, 1)
	if _, ok := c.Stats(123); ok {
		t.Fatal("stats for unknown job")
	}
}

// TestFullLassenScale boots the paper's entire Lassen (792 nodes) and
// runs a job across all of it — the "scalable" claim at the system's
// real size. The TBON is 10 levels deep at fanout 2.
func TestFullLassenScale(t *testing.T) {
	c, err := New(Config{System: Lassen, Nodes: 792, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit(job.Spec{App: "laghos", Nodes: 792})
	if err != nil {
		t.Fatal(err)
	}
	if _, idle := c.RunUntilIdle(2 * time.Minute); !idle {
		t.Fatal("792-node job never finished")
	}
	st, _ := c.Stats(id)
	if len(st.Ranks) != 792 {
		t.Fatalf("ranks: %d", len(st.Ranks))
	}
	if math.Abs(st.ExecSec()-12.55) > 0.5 {
		t.Fatalf("792-node laghos %.2f s (weak scaling should hold)", st.ExecSec())
	}
	// Idle draw of the full machine: 792 x 400 W ≈ 317 kW.
	if tp := c.TotalPowerW(); math.Abs(tp-792*400) > 1000 {
		t.Fatalf("idle machine power %.0f W", tp)
	}
}

// TestRunUntilIdleQueuedJobIsNotDrained: a job the dispatcher cannot
// admit under its power budget stays queued, so the horizon must not
// report the system drained.
func TestRunUntilIdleQueuedJobIsNotDrained(t *testing.T) {
	c, err := New(Config{System: Lassen, Nodes: 2, Seed: 42, SchedBudgetW: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit(job.Spec{App: "gemm", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, idle := c.RunUntilIdle(5 * time.Second); idle {
		t.Fatal("reported drained while a job is queued")
	}
	if rec, err := c.JM.Info(id); err != nil || rec.State != job.StateSched {
		t.Fatalf("job state %v (err %v), want %v", rec.State, err, job.StateSched)
	}
}

// TestCloseDrainsInFlightAdvance pins the Close race fix: Close from a
// second goroutine must drain a RunFor advancing jobs mid-flight instead
// of racing the tick callback (run under -race). A timer 30 s into the
// run issues Close while that RunFor is inside a tick and holds it there
// until Close has switched the tick off, so Close always lands on an
// advance in flight. The subtest is named for the fixed-step tick engine
// it drives.
func TestCloseDrainsInFlightAdvance(t *testing.T) {
	t.Run("tick", func(t *testing.T) {
		c, err := New(Config{System: Lassen, Nodes: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(job.Spec{App: "gemm", Nodes: 4, RepFactor: 10}); err != nil {
			t.Fatal(err)
		}
		const run = 5 * time.Minute
		inFlight := make(chan struct{})
		c.Sched.AfterFunc(30*time.Second, func(simtime.Time) {
			close(inFlight)
			for !c.closed.Load() {
				runtime.Gosched()
			}
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.RunFor(run)
		}()
		<-inFlight
		c.Close()
		// Close waited for the advance: its whole run has elapsed.
		if now := c.Sched.Now(); now != simtime.Time(0).Add(run) {
			t.Fatalf("Close returned at %v with the advance still in flight", now)
		}
		<-done
		// The job had run for 30 s when Close switched its tick off: it
		// integrated some of the run, not all of it.
		st1, _ := c.Stats(1)
		if st1.sampleSec <= 0 || st1.sampleSec >= run.Seconds() {
			t.Fatalf("job integrated %v s by Close, want strictly between 0 and %v", st1.sampleSec, run.Seconds())
		}
		// Its tick is stopped, so its stats cannot move.
		c.RunFor(10 * time.Second)
		if st2, _ := c.Stats(1); st1.sampleSec != st2.sampleSec {
			t.Fatalf("job advanced after Close: %v s -> %v s integrated", st1.sampleSec, st2.sampleSec)
		}
	})
}
