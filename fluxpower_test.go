package fluxpower

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"fluxpower/internal/core/powermon"
)

func TestQuickstartFlow(t *testing.T) {
	c, err := NewCluster(Config{System: Lassen, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit(JobSpec{App: "laghos", Nodes: 4, Name: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilIdle(time.Minute) {
		t.Fatal("job never finished")
	}
	rep, err := c.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != StateInactive || rep.App != "laghos" || rep.Name != "demo" {
		t.Fatalf("report: %+v", rep)
	}
	if math.Abs(rep.ExecSec-12.55) > 0.5 {
		t.Fatalf("exec %.2f s, want ~12.55", rep.ExecSec)
	}
	if rep.AvgNodePowerW < 440 || rep.AvgNodePowerW > 510 {
		t.Fatalf("avg power %.0f W", rep.AvgNodePowerW)
	}
	sum, err := c.JobPowerSummary(id)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete {
		t.Fatal("telemetry incomplete")
	}
	var buf bytes.Buffer
	if err := c.WriteJobCSV(&buf, id); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "jobid,") {
		t.Fatalf("CSV header: %q", buf.String()[:40])
	}
}

func TestPolicyConfiguration(t *testing.T) {
	if _, err := NewCluster(Config{Nodes: 2, Policy: PolicyStatic}); err == nil {
		t.Fatal("static policy without cap accepted")
	}
	if _, err := NewCluster(Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	c, err := NewCluster(Config{
		Nodes:           8,
		Policy:          PolicyProportional,
		GlobalPowerCapW: 9600,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(JobSpec{App: "gemm", Nodes: 6}); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Second)
	policy, global, allocs, err := c.PowerStatus()
	if err != nil {
		t.Fatal(err)
	}
	if policy != PolicyProportional || global != 9600 {
		t.Fatalf("status: %v %v", policy, global)
	}
	if len(allocs) != 1 || allocs[0].PerNodeW != 1600 || allocs[0].JobW != 9600 {
		t.Fatalf("allocations: %+v", allocs)
	}
	ns, err := c.NodeStatus(0)
	if err != nil {
		t.Fatal(err)
	}
	if ns.LimitW != 1600 || ns.NodeCapW != 1950 {
		t.Fatalf("node status: %+v", ns)
	}
	if _, err := c.NodeStatus(99); err == nil {
		t.Fatal("bad rank accepted")
	}
	if err := c.SetGlobalPowerCap(4800); err != nil {
		t.Fatal(err)
	}
	_, global, _, _ = c.PowerStatus()
	if global != 4800 {
		t.Fatalf("global cap after change: %v", global)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 4, Policy: "propotional", GlobalPowerCapW: 2400})
	if err == nil {
		c.Close()
		t.Fatal("misspelt power policy accepted")
	}
	if !strings.Contains(err.Error(), "propotional") {
		t.Fatalf("error does not name the bad policy: %v", err)
	}
}

func TestMonitorDisabled(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, DisableMonitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Submit(JobSpec{App: "laghos", Nodes: 1})
	c.RunUntilIdle(time.Minute)
	if _, err := c.JobPower(id); err == nil {
		t.Fatal("JobPower without monitor succeeded")
	}
	if err := c.SetGlobalPowerCap(1000); err == nil {
		t.Fatal("SetGlobalPowerCap without manager succeeded")
	}
	// PowerStatus degrades gracefully.
	policy, _, allocs, err := c.PowerStatus()
	if err != nil || policy != PolicyNone || allocs != nil {
		t.Fatalf("PowerStatus: %v %v %v", policy, allocs, err)
	}
}

func TestJobsListing(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(JobSpec{App: "laghos", Nodes: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.RunUntilIdle(5 * time.Minute) {
		t.Fatal("queue never drained")
	}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("%d jobs listed", len(jobs))
	}
	for _, j := range jobs {
		if j.State != StateInactive || j.EnergyPerNodeJ <= 0 {
			t.Fatalf("job record: %+v", j)
		}
	}
	if c.NowSec() <= 0 {
		t.Fatal("time did not advance")
	}
}

func TestApplicationsCatalog(t *testing.T) {
	names := Applications()
	if len(names) != 7 {
		t.Fatalf("catalog: %v", names)
	}
	c, err := NewCluster(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Submit(JobSpec{App: "not-an-app", Nodes: 1})
	c.Run(time.Second)
	rep, err := c.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != StateInactive {
		t.Fatalf("unknown app state: %v", rep.State)
	}
}

func TestTiogaFacade(t *testing.T) {
	c, err := NewCluster(Config{System: Tioga, Nodes: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Submit(JobSpec{App: "lammps", Nodes: 2})
	if !c.RunUntilIdle(5 * time.Minute) {
		t.Fatal("job never finished")
	}
	sum, err := c.JobPowerSummary(id)
	if err != nil {
		t.Fatal(err)
	}
	if sum.AvgMemW != -1 {
		t.Fatalf("Tioga memory power: %v", sum.AvgMemW)
	}
}

func TestPerJobPolicyViaFacade(t *testing.T) {
	c, err := NewCluster(Config{
		Nodes:           8,
		Policy:          PolicyProportional,
		GlobalPowerCapW: 9600,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _ = c.Submit(JobSpec{App: "gemm", Nodes: 6, RepFactor: 2})
	_, _ = c.Submit(JobSpec{App: "quicksilver", Nodes: 2, SizeFactor: 27.2, PowerPolicy: PolicyFPP})
	c.Run(5 * time.Second)
	_, _, allocs, err := c.PowerStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatalf("allocations: %+v", allocs)
	}
	// Both jobs share the bound regardless of their individual policies.
	for _, a := range allocs {
		if a.PerNodeW != 1200 {
			t.Fatalf("allocation: %+v", a)
		}
	}
}

func TestAllocationUserLevelInstance(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	alloc, err := c.SpawnAllocation("research-alloc", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Ranks()) != 4 {
		t.Fatalf("allocation ranks: %v", alloc.Ranks())
	}
	// The user loads their own manager with their own budget.
	if err := alloc.LoadPowerManager(PolicyProportional, 4*1200); err != nil {
		t.Fatal(err)
	}
	if err := alloc.LoadPowerManager(PolicyStatic, 0); err == nil {
		t.Fatal("static policy accepted inside an allocation")
	}
	id, err := alloc.Submit(JobSpec{App: "gemm", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Second)
	policy, budget, allocs, err := alloc.PowerStatus()
	if err != nil {
		t.Fatal(err)
	}
	if policy != PolicyProportional || budget != 4800 || len(allocs) != 1 {
		t.Fatalf("user manager status: %v %v %+v", policy, budget, allocs)
	}
	if allocs[0].PerNodeW != 1200 {
		t.Fatalf("user allocation: %+v", allocs[0])
	}
	// Run the user's job to completion and read its report.
	c.Run(10 * time.Minute)
	if !alloc.Idle() {
		t.Fatal("allocation not idle")
	}
	rep, err := alloc.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != StateInactive || rep.ExecSec <= 0 || rep.EnergyPerNodeJ <= 0 {
		t.Fatalf("sub-job report: %+v", rep)
	}
	if err := alloc.Close(); err != nil {
		t.Fatal(err)
	}
	// The system instance sees the allocation job as inactive.
	sys, err := c.Report(alloc.ID())
	if err != nil || sys.State != StateInactive {
		t.Fatalf("system view after close: %+v err=%v", sys, err)
	}
}

func TestAllocationUserLevelMonitor(t *testing.T) {
	// A user loads their own telemetry monitor inside the allocation —
	// user-level telemetry independent of the system instance's.
	c, err := NewCluster(Config{Nodes: 4, Seed: 8, DisableMonitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	alloc, err := c.SpawnAllocation("telemetry-alloc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.LoadPowerMonitor(powermon.Config{}); err != nil {
		t.Fatal(err)
	}
	id, err := alloc.Submit(JobSpec{App: "quicksilver", Nodes: 2, SizeFactor: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	rep, err := alloc.Report(id)
	if err != nil || rep.State != StateInactive {
		t.Fatalf("sub-job: %+v err=%v", rep, err)
	}
	// The user queries their own monitor through their own instance.
	mon := powermon.NewClient(alloc.si.Inst.Root())
	jp, err := mon.Query(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(jp.Nodes) != 2 || !jp.Complete() {
		t.Fatalf("user-level telemetry: %d nodes complete=%v", len(jp.Nodes), jp.Complete())
	}
	if err := alloc.Close(); err != nil {
		t.Fatal(err)
	}
}

// A sub-job that queued inside a user allocation reports its wait, as a
// system-instance job does: two 2-node jobs in a 2-node allocation run
// one after the other.
func TestAllocationReportQueueWait(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	alloc, err := c.SpawnAllocation("queue-alloc", 2)
	if err != nil {
		t.Fatal(err)
	}
	var ids [2]JobID
	for i := range ids {
		if ids[i], err = alloc.Submit(JobSpec{App: "gemm", Nodes: 2}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(30 * time.Minute)
	if !alloc.Idle() {
		t.Fatal("allocation not idle")
	}
	first, err := alloc.Report(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alloc.Report(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartSec < first.EndSec || rep.QueueWaitSec <= 0 || rep.QueueWaitSec != rep.StartSec-rep.SubmitSec {
		t.Fatalf("second sub-job: wait %v s, submit %v, start %v (first ended %v)",
			rep.QueueWaitSec, rep.SubmitSec, rep.StartSec, first.EndSec)
	}
	if err := alloc.Close(); err != nil {
		t.Fatal(err)
	}
}
