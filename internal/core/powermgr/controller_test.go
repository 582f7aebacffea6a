package powermgr

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/job"
)

// ctlCluster builds a Lassen cluster under proportional sharing with the
// closed-loop controller in the given mode.
func ctlCluster(t *testing.T, nodes int, budgetW float64, mode string) *cluster.Cluster {
	t.Helper()
	return managed(t, cluster.Lassen, nodes, Config{
		Policy:     PolicyProportional,
		GlobalCapW: budgetW,
		Controller: ControllerConfig{Mode: mode},
	})
}

func TestControllerObserveCountsViolationsWithoutRetuning(t *testing.T) {
	// 4 nodes at 1000 W/node: LAMMPS demands ~1284 W/node, and the
	// enforcement path can only cap GPUs (the non-GPU 900 W is below the
	// vendor backstop), so the observed draw genuinely exceeds the cap.
	c := ctlCluster(t, 4, 4000, ControllerObserve)
	pm := NewClient(c.Inst.Root())
	id, err := c.Submit(job.Spec{App: "lammps", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * time.Second)

	st, err := pm.Controller()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != ControllerObserve {
		t.Fatalf("mode %q", st.Mode)
	}
	if st.Rounds == 0 {
		t.Fatal("no observation rounds ran")
	}
	if st.Violations == 0 {
		t.Fatal("over-cap job produced no violation counts")
	}
	if st.Retunes != 0 {
		t.Fatalf("observe mode retuned %d times", st.Retunes)
	}
	_, _, allocs, err := pm.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 || allocs[0].PerNodeW != 1000 {
		t.Fatalf("observe mode moved the allocation: %+v", allocs)
	}
	var found bool
	for _, j := range st.Jobs {
		if j.JobID == id {
			found = true
			if j.Violations == 0 {
				t.Fatal("per-job violation counter empty")
			}
			if len(j.CapHistory) == 0 {
				t.Fatal("per-job cap history empty")
			}
		}
	}
	if !found {
		t.Fatal("job missing from controller status")
	}
}

func TestControllerRetuneReclaimsSlackAndGrantsToThrottled(t *testing.T) {
	// Two jobs at 8 nodes, 8 kW: the proportional split gives each node
	// 1000 W. Laghos draws ~500 W/node (slack); LAMMPS demands ~1284
	// W/node (throttled). The closed loop must shift watts from laghos
	// to lammps.
	c := ctlCluster(t, 8, 8000, ControllerRetune)
	pm := NewClient(c.Inst.Root())
	laghosID, err := c.Submit(job.Spec{App: "laghos", Nodes: 4, SizeFactor: 20})
	if err != nil {
		t.Fatal(err)
	}
	lammpsID, err := c.Submit(job.Spec{App: "lammps", Nodes: 4, RepFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)

	st, err := pm.Controller()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retunes == 0 {
		t.Fatal("closed loop never retuned")
	}
	if st.ReclaimedWTotal == 0 || st.GrantedWTotal == 0 {
		t.Fatalf("no watt movement: reclaimed %.0f granted %.0f",
			st.ReclaimedWTotal, st.GrantedWTotal)
	}
	_, _, allocs, err := pm.Status()
	if err != nil {
		t.Fatal(err)
	}
	caps := map[uint64]float64{}
	for _, a := range allocs {
		caps[a.JobID] = a.PerNodeW
	}
	if caps[laghosID] >= 1000 {
		t.Fatalf("laghos cap %.0f W: slack not reclaimed", caps[laghosID])
	}
	if caps[lammpsID] <= 1000 {
		t.Fatalf("lammps cap %.0f W: no grant from reclaimed slack", caps[lammpsID])
	}
}

func TestControllerRetuneHoldsBudget(t *testing.T) {
	// Whatever the loop does, the sum of caps must never exceed the
	// global budget at any checkpoint.
	c := ctlCluster(t, 8, 8000, ControllerRetune)
	pm := NewClient(c.Inst.Root())
	if _, err := c.Submit(job.Spec{App: "laghos", Nodes: 4, SizeFactor: 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(job.Spec{App: "lammps", Nodes: 4, RepFactor: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.RunFor(3 * time.Second)
		_, _, allocs, err := pm.Status()
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, a := range allocs {
			total += a.PerNodeW * float64(len(a.Ranks))
		}
		if total > 8000+1e-6 {
			t.Fatalf("fleet caps %.1f W exceed 8000 W budget at checkpoint %d", total, i)
		}
	}
}

func TestControllerCapsRespectHardwareFloor(t *testing.T) {
	// An idle-ish job must not be squeezed below what the enforcement
	// path can express: idleReserveW + GPUs×GPUMinW = 400 + 4×100 = 800 W
	// on Lassen.
	c := ctlCluster(t, 4, 4800, ControllerRetune)
	pm := NewClient(c.Inst.Root())
	if _, err := c.Submit(job.Spec{App: "nqueens", Nodes: 4, SizeFactor: 50}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(120 * time.Second)
	_, _, allocs, err := pm.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 {
		t.Fatalf("allocs: %+v", allocs)
	}
	if allocs[0].PerNodeW < 800 {
		t.Fatalf("cap %.0f W below the 800 W hardware floor", allocs[0].PerNodeW)
	}
}

func TestControllerOffByDefault(t *testing.T) {
	c := managed(t, cluster.Lassen, 4, Config{Policy: PolicyProportional, GlobalCapW: 4000})
	pm := NewClient(c.Inst.Root())
	if _, err := c.Submit(job.Spec{App: "gemm", Nodes: 4}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)
	st, err := pm.Controller()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.Retunes != 0 {
		t.Fatalf("controller ran while off: %+v", st)
	}
}

func TestCapHistoryRecordsProportionalSplits(t *testing.T) {
	// Even without the controller's loop, every allocation change must
	// land in the cap history (satellite: operators need it too).
	c := managed(t, cluster.Lassen, 8, Config{Policy: PolicyProportional, GlobalCapW: 9600})
	pm := NewClient(c.Inst.Root())
	id1, _ := c.Submit(job.Spec{App: "gemm", Nodes: 6, RepFactor: 2})
	c.RunFor(time.Second)
	if _, err := c.Submit(job.Spec{App: "quicksilver", Nodes: 2, SizeFactor: 10}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)

	st, err := pm.Controller()
	if err != nil {
		t.Fatal(err)
	}
	var hist []CapPoint
	for _, j := range st.Jobs {
		if j.JobID == id1 {
			hist = cloneHistory(j.CapHistory)
		}
	}
	// Job 1 alone: 9600/6 = 1600 W/node. The second job redistributes
	// to 9600/8 = 1200 W/node — both splits must be in the history.
	if len(hist) < 2 {
		t.Fatalf("cap history %+v, want ≥2 points", hist)
	}
	last := hist[len(hist)-1].PerNodeW
	if last != 1200 {
		t.Fatalf("last cap %v, want 1200 after redistribution", last)
	}
}

func cloneHistory(h []CapPoint) []CapPoint { return append([]CapPoint(nil), h...) }

func TestStatusListsLiveJobsOnly(t *testing.T) {
	// A stream of short jobs: the controller table must follow the live
	// allocations, so the status reply stays the same size however many
	// jobs have finished. Laghos leaves slack under a 1000 W/node split
	// and LAMMPS presses against it, so the loop retunes and cap
	// histories grow.
	c := ctlCluster(t, 4, 4000, ControllerRetune)
	pm := NewClient(c.Inst.Root())
	const jobs = 44
	for i := 0; i < jobs/2; i++ {
		if _, err := c.Submit(job.Spec{App: "laghos", Nodes: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(job.Spec{App: "lammps", Nodes: 2, SizeFactor: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	finished := func() int {
		recs, err := c.JM.List()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range recs {
			if r.State == job.StateInactive {
				n++
			}
		}
		return n
	}
	statusBytes := func() int {
		resp, err := c.Inst.Root().Call(0, "power-manager.status", nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(resp.Payload)
	}
	encodedLen := func(v any) int {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}

	sizeAt2, entryW := -1, 0
	for step := 0; ; step++ {
		if step == 1000 {
			t.Fatalf("only %d of %d jobs finished", finished(), jobs)
		}
		c.RunFor(2 * time.Second)
		_, _, allocs, err := pm.Status()
		if err != nil {
			t.Fatal(err)
		}
		st, err := pm.Controller()
		if err != nil {
			t.Fatal(err)
		}
		var live, tracked []uint64
		for _, a := range allocs {
			live = append(live, a.JobID)
		}
		for _, j := range st.Jobs {
			tracked = append(tracked, j.JobID)
		}
		if !slices.Equal(live, tracked) {
			t.Fatalf("step %d: controller lists jobs %v, live allocations are %v", step, tracked, live)
		}
		for i, j := range st.Jobs {
			// One job's share of the reply: its allocation, its controller
			// entry and the two separating commas.
			entryW = max(entryW, encodedLen(allocs[i])+encodedLen(j)+2)
		}
		done := finished()
		if done >= 2 && sizeAt2 < 0 {
			sizeAt2 = statusBytes()
		}
		if done >= 40 {
			if st.Retunes == 0 {
				t.Fatal("controller never retuned: the stream did not exercise cap history")
			}
			got := statusBytes()
			if got > sizeAt2+entryW {
				t.Fatalf("status is %d bytes after %d finished jobs, was %d after 2 (one live job's entry is %d)",
					got, done, sizeAt2, entryW)
			}
			t.Logf("status %d bytes after %d finished jobs, %d after 2", got, done, sizeAt2)
			return
		}
	}
}
