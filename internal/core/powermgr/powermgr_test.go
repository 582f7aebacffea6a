package powermgr

import (
	"math"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
)

// managed builds a Lassen cluster with the power manager on every node.
func managed(t *testing.T, system cluster.System, nodes int, cfg Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{System: system, Nodes: nodes, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return New(cfg)
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPolicyNoneLeavesNodesUncapped(t *testing.T) {
	c := managed(t, cluster.Lassen, 4, Config{Policy: PolicyNone})
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 4})
	c.RunFor(10 * time.Second)
	for r := int32(0); r < 4; r++ {
		if c.Node(r).NodeCap() != 0 {
			t.Fatalf("rank %d capped under PolicyNone", r)
		}
		if c.Node(r).EffectiveGPUCap(0) != 300 {
			t.Fatalf("rank %d GPU capped under PolicyNone", r)
		}
	}
}

func TestPolicyStaticReproducesIBMConservatism(t *testing.T) {
	// The Table III baseline: a 1200 W vendor node cap silently caps each
	// GPU at 100 W.
	c := managed(t, cluster.Lassen, 4, Config{Policy: PolicyStatic, StaticNodeCapW: 1200})
	c.RunFor(time.Second)
	for r := int32(0); r < 4; r++ {
		if got := c.Node(r).NodeCap(); got != 1200 {
			t.Fatalf("rank %d node cap %v, want 1200", r, got)
		}
		if got := c.Node(r).EffectiveGPUCap(0); got != 100 {
			t.Fatalf("rank %d derived GPU cap %v, want 100", r, got)
		}
	}
}

func TestProportionalSharingAllocation(t *testing.T) {
	// §III-B1 on the Table IV scenario: 8 nodes, 9.6 kW bound.
	c := managed(t, cluster.Lassen, 8, Config{Policy: PolicyProportional, GlobalCapW: 9600})
	pm := NewClient(c.Inst.Root())

	// GEMM alone on 6 nodes: 9600/6 = 1600 W per node.
	gemmID, _ := c.Submit(job.Spec{App: "gemm", Nodes: 6, RepFactor: 2})
	c.RunFor(time.Second)
	_, _, allocs, err := pm.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 || math.Abs(allocs[0].PerNodeW-1600) > 1e-9 {
		t.Fatalf("GEMM-alone allocation: %+v", allocs)
	}
	// Manager-derived NVML caps come out at (1600-400)/4 = 300 W, but the
	// 1950 W OPAL backstop's firmware-derived cap (Table III: 253 W)
	// binds — exactly the paper's measured ceiling under prop-share.
	if got := c.Node(0).EffectiveGPUCap(0); math.Abs(got-253.25) > 0.01 {
		t.Fatalf("gpu cap with 1600 W/node: %v, want 253.25", got)
	}
	// Backstop OPAL cap installed.
	if got := c.Node(0).NodeCap(); got != 1950 {
		t.Fatalf("backstop node cap %v, want 1950", got)
	}

	// QS arrives on the last 2 nodes: everyone redistributes to 1200 W.
	qsID, _ := c.Submit(job.Spec{App: "quicksilver", Nodes: 2, SizeFactor: 27.2})
	c.RunFor(time.Second)
	_, _, allocs, _ = pm.Status()
	if len(allocs) != 2 {
		t.Fatalf("allocations: %+v", allocs)
	}
	for _, a := range allocs {
		if math.Abs(a.PerNodeW-1200) > 1e-9 {
			t.Fatalf("redistribution: %+v", allocs)
		}
	}
	// (1200-400)/4 = 200 W per GPU on every allocated node.
	for r := int32(0); r < 8; r++ {
		if got := c.Node(r).EffectiveGPUCap(0); math.Abs(got-200) > 1e-9 {
			t.Fatalf("rank %d gpu cap %v, want 200", r, got)
		}
	}

	// QS finishes: GEMM reclaims (Fig 5) — back to 1600 W/node, GPUs 300.
	if _, idle := c.RunUntilIdle(20 * time.Minute); !idle {
		t.Fatal("jobs never drained")
	}
	qsStats, _ := c.Stats(qsID)
	gemmStats, _ := c.Stats(gemmID)
	if qsStats.EndSec >= gemmStats.EndSec {
		t.Fatalf("expected QS (%v) to finish before GEMM (%v)", qsStats.EndSec, gemmStats.EndSec)
	}
	// After both finish, all caps are released.
	for r := int32(0); r < 8; r++ {
		if c.Node(r).NodeCap() != 0 || c.Node(r).GPUCap(0) != 0 {
			t.Fatalf("rank %d caps not released", r)
		}
	}
}

func TestUnconstrainedProportionalGivesPeakPower(t *testing.T) {
	c := managed(t, cluster.Lassen, 4, Config{Policy: PolicyProportional, GlobalCapW: 0})
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 4})
	c.RunFor(time.Second)
	pm := NewClient(c.Inst.Root())
	_, _, allocs, err := pm.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 || allocs[0].PerNodeW != 3050 {
		t.Fatalf("unconstrained allocation: %+v", allocs)
	}
	// Peak allocation means no capping at all (§III-B).
	if got := c.Node(0).EffectiveGPUCap(0); got != 300 {
		t.Fatalf("gpu cap %v", got)
	}
	if got := c.Node(0).NodeCap(); got != 0 {
		t.Fatalf("unconstrained run installed a node cap: %v", got)
	}
}

func TestNewJobAdmittedAtMaxWhenBudgetAllows(t *testing.T) {
	// 4 nodes, 13 kW budget: a 2-node job fits at the 3050 W node peak,
	// then a second 2-node job forces redistribution.
	c := managed(t, cluster.Lassen, 4, Config{Policy: PolicyProportional, GlobalCapW: 13000})
	pm := NewClient(c.Inst.Root())
	_, _ = c.Submit(job.Spec{App: "laghos", Nodes: 2, SizeFactor: 100})
	c.RunFor(time.Second)
	_, _, allocs, _ := pm.Status()
	if len(allocs) != 1 || allocs[0].PerNodeW != 3050 {
		t.Fatalf("first job allocation: %+v", allocs)
	}
	_, _ = c.Submit(job.Spec{App: "laghos", Nodes: 2, SizeFactor: 100})
	c.RunFor(time.Second)
	_, _, allocs, _ = pm.Status()
	if len(allocs) != 2 {
		t.Fatalf("allocations: %+v", allocs)
	}
	for _, a := range allocs {
		if math.Abs(a.PerNodeW-3050) > 1e-9 {
			// 13000/4 = 3250 > 3050 → clamped at peak; both fit.
			t.Fatalf("allocation after second job: %+v", allocs)
		}
	}
}

func TestSetGlobalCapRedistributes(t *testing.T) {
	c := managed(t, cluster.Lassen, 4, Config{Policy: PolicyProportional, GlobalCapW: 0})
	pm := NewClient(c.Inst.Root())
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 4})
	c.RunFor(time.Second)
	if err := pm.SetGlobalCap(4800); err != nil {
		t.Fatal(err)
	}
	_, globalW, allocs, _ := pm.Status()
	if globalW != 4800 {
		t.Fatalf("global cap %v", globalW)
	}
	if len(allocs) != 1 || math.Abs(allocs[0].PerNodeW-1200) > 1e-9 {
		t.Fatalf("post-change allocation: %+v", allocs)
	}
	if err := pm.SetGlobalCap(-5); err == nil {
		t.Fatal("negative cap accepted")
	}
}

func TestFPPConvergesOnQuicksilver(t *testing.T) {
	// QS under FPP with ample power: period stays stable, controllers
	// converge quickly and caps stay at the derived limit (§IV-D).
	c := managed(t, cluster.Lassen, 2, Config{Policy: PolicyFPP, GlobalCapW: 2400})
	pm := NewClient(c.Inst.Root())
	_, _ = c.Submit(job.Spec{App: "quicksilver", Nodes: 2, SizeFactor: 40}) // ~510 s
	c.RunFor(400 * time.Second)
	info, err := pm.NodeInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	conv, ok := info["fpp_converged"].([]any)
	if !ok || len(conv) != 4 {
		t.Fatalf("fpp state: %+v", info)
	}
	for g, v := range conv {
		if v != true {
			t.Fatalf("gpu %d not converged after 400s: %+v", g, info)
		}
	}
	caps := info["fpp_caps_w"].([]any)
	for g, v := range caps {
		w := v.(float64)
		if w < 100 || w > 300 {
			t.Fatalf("gpu %d cap %v out of range", g, w)
		}
	}
}

func TestTiogaProportionalFailsGracefully(t *testing.T) {
	// Capping is administratively disabled on Tioga: allocations are
	// computed, enforcement fails per node, telemetry keeps working and
	// nothing crashes (the paper ran manager experiments on Lassen only).
	c := managed(t, cluster.Tioga, 2, Config{Policy: PolicyProportional, GlobalCapW: 2000})
	id, _ := c.Submit(job.Spec{App: "laghos", Nodes: 2})
	if _, idle := c.RunUntilIdle(3 * time.Minute); !idle {
		t.Fatal("job never finished")
	}
	st, _ := c.Stats(id)
	if math.Abs(st.ExecSec()-26.71) > 1.5 {
		t.Fatalf("Tioga job affected by unenforceable caps: %.2f s", st.ExecSec())
	}
}

func TestModuleRequiresHardware(t *testing.T) {
	c := managed(t, cluster.Lassen, 1, Config{})
	// Loading a second manager on the same broker must fail (dup module),
	// proving the first one is registered.
	if err := c.Inst.Root().LoadModule(New(Config{})); err == nil {
		t.Fatal("duplicate module load succeeded")
	}
}

func TestNodeInfoReportsCaps(t *testing.T) {
	c := managed(t, cluster.Lassen, 2, Config{Policy: PolicyProportional, GlobalCapW: 2400})
	pm := NewClient(c.Inst.Root())
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 2})
	c.RunFor(time.Second)
	info, err := pm.NodeInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	if info["limit_w"].(float64) != 1200 {
		t.Fatalf("node info limit: %+v", info)
	}
	gpuCaps := info["gpu_caps_w"].([]any)
	if len(gpuCaps) != 4 || gpuCaps[0].(float64) != 200 {
		t.Fatalf("node info gpu caps: %+v", gpuCaps)
	}
}

func TestPerJobPolicyOverride(t *testing.T) {
	// User-level customization (§I): on a proportional-default cluster,
	// one job requests FPP. Its nodes run the FFT controllers; the other
	// job's nodes enforce plain proportional caps.
	c := managed(t, cluster.Lassen, 8, Config{Policy: PolicyProportional, GlobalCapW: 9600})
	pm := NewClient(c.Inst.Root())
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 6, RepFactor: 2})
	_, _ = c.Submit(job.Spec{App: "quicksilver", Nodes: 2, SizeFactor: 27.2, PowerPolicy: "fpp"})
	c.RunFor(5 * time.Second)

	// GEMM's nodes (0-5): proportional, no FPP controllers.
	infoGemm, err := pm.NodeInfo(0)
	if err != nil {
		t.Fatal(err)
	}
	if infoGemm["policy"] != string(PolicyProportional) {
		t.Fatalf("gemm node policy: %v", infoGemm["policy"])
	}
	if _, hasFPP := infoGemm["fpp_caps_w"]; hasFPP {
		t.Fatal("proportional job grew FPP controllers")
	}
	// Quicksilver's nodes (6-7): FPP controllers active.
	infoQS, err := pm.NodeInfo(6)
	if err != nil {
		t.Fatal(err)
	}
	if infoQS["policy"] != string(PolicyFPP) {
		t.Fatalf("qs node policy: %v", infoQS["policy"])
	}
	if _, hasFPP := infoQS["fpp_caps_w"]; !hasFPP {
		t.Fatal("fpp job has no controllers")
	}
	// Allocation table reflects the per-job policies.
	_, _, allocs, err := pm.Status()
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[Policy]int{}
	for _, a := range allocs {
		byPolicy[a.Policy]++
	}
	if byPolicy[PolicyProportional] != 1 || byPolicy[PolicyFPP] != 1 {
		t.Fatalf("allocation policies: %+v", allocs)
	}
}

func TestPerJobPolicyInvalidFallsBack(t *testing.T) {
	c := managed(t, cluster.Lassen, 2, Config{Policy: PolicyProportional, GlobalCapW: 2400})
	pm := NewClient(c.Inst.Root())
	_, _ = c.Submit(job.Spec{App: "laghos", Nodes: 2, SizeFactor: 100, PowerPolicy: "static"})
	c.RunFor(time.Second)
	_, _, allocs, err := pm.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 || allocs[0].Policy != PolicyProportional {
		t.Fatalf("invalid per-job policy not rejected: %+v", allocs)
	}
}

func TestCapWriteVerificationRetriesSilentFailures(t *testing.T) {
	// Section V: NVML cap writes intermittently fail silently. The
	// manager verifies each write against the device-reported cap and
	// retries; with p=0.4 per write, three attempts almost always land.
	c, err := cluster.New(cluster.Config{
		System: cluster.Lassen, Nodes: 2, Seed: 17, GPUCapFailureProb: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return New(Config{Policy: PolicyProportional, GlobalCapW: 2400})
	}); err != nil {
		t.Fatal(err)
	}
	pm := NewClient(c.Inst.Root())
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 2})
	c.RunFor(2 * time.Second)

	totalRetries := 0.0
	for rank := int32(0); rank < 2; rank++ {
		info, err := pm.NodeInfo(rank)
		if err != nil {
			t.Fatal(err)
		}
		totalRetries += info["cap_retries"].(float64)
		// Despite injected failures, the enforced caps must be correct
		// (or the failure must be counted, not silently absorbed).
		failures := info["cap_failures"].(float64)
		for g := 0; g < 4; g++ {
			if c.Node(rank).ReportedGPUCap(g) != 200 && failures == 0 {
				t.Fatalf("rank %d gpu %d cap %v not verified and not counted",
					rank, g, c.Node(rank).ReportedGPUCap(g))
			}
		}
	}
	if totalRetries == 0 {
		t.Fatal("no retries recorded at 40% injected failure rate")
	}
}

func TestCapVerificationToleratesDeviceRounding(t *testing.T) {
	// A device that rounds caps to its own resolution (here 1 W) reports
	// a cap slightly different from the fractional request. Verification
	// compares against the clamped request within epsilon plus the
	// rounding step, so a healthy rounded write must not be classed as a
	// silent failure (the old exact-equality check retried three times
	// and counted a failure on every fractional cap).
	hwCfg := hw.LassenConfig()
	hwCfg.GPUCapQuantumW = 1.0
	node, err := hw.NewNode("quantized", hwCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := broker.NewInstance(broker.InstanceOptions{
		Size:      1,
		Scheduler: simtime.NewScheduler(),
		Local:     func(int32) any { return node },
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Policy: PolicyProportional})
	if err := inst.Root().LoadModule(m); err != nil {
		t.Fatal(err)
	}
	// 1349 W node limit → (1349-400)/4 = 237.25 W per GPU, which the
	// device rounds to 237 W.
	if _, err := inst.Root().Call(0, "power-manager.node.setlimit", map[string]any{
		"op": "setlimit", "jobid": 1, "limit_w": 1349.0, "policy": "proportional",
	}); err != nil {
		t.Fatal(err)
	}
	info, err := NewClient(inst.Root()).NodeInfo(0)
	if err != nil {
		t.Fatal(err)
	}
	if retries := info["cap_retries"].(float64); retries != 0 {
		t.Fatalf("rounded-but-healthy writes burned %v retries", retries)
	}
	if failures := info["cap_failures"].(float64); failures != 0 {
		t.Fatalf("rounded-but-healthy writes counted %v failures", failures)
	}
	for g := 0; g < 4; g++ {
		if got := node.ReportedGPUCap(g); got != 237 {
			t.Fatalf("gpu %d reported cap %v, want 237 (quantized)", g, got)
		}
	}
}

func TestCapVerificationComparesAgainstClampedRequest(t *testing.T) {
	// A request outside the device range is clamped before writing, and
	// the verification target is the clamped value — a cap above GPUMaxW
	// lands at GPUMaxW and verifies, instead of erroring or miscounting.
	node, err := hw.NewNode("clamped", hw.LassenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := broker.NewInstance(broker.InstanceOptions{
		Size:      1,
		Scheduler: simtime.NewScheduler(),
		Local:     func(int32) any { return node },
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Policy: PolicyProportional})
	if err := inst.Root().LoadModule(m); err != nil {
		t.Fatal(err)
	}
	if err := m.writeGPUCapVerified(0, 450); err != nil { // above 300 W max
		t.Fatal(err)
	}
	if got := node.ReportedGPUCap(0); got != 300 {
		t.Fatalf("over-range cap reported %v, want clamped 300", got)
	}
	if err := m.writeGPUCapVerified(1, 50); err != nil { // below 100 W min
		t.Fatal(err)
	}
	if got := node.ReportedGPUCap(1); got != 100 {
		t.Fatalf("under-range cap reported %v, want clamped 100", got)
	}
	if m.capRetries != 0 || m.capFailures != 0 {
		t.Fatalf("clamped writes miscounted: retries=%d failures=%d", m.capRetries, m.capFailures)
	}
}

func TestPushFailuresRecordedInStatus(t *testing.T) {
	// The power manager runs only on rank 0: its limit push to rank 1
	// (no node-level manager there) fails, and the failure must surface
	// in the status diagnostics instead of vanishing in a dropped
	// callback.
	c, err := cluster.New(cluster.Config{System: cluster.Lassen, Nodes: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Inst.Root().LoadModule(New(Config{Policy: PolicyProportional, GlobalCapW: 2400})); err != nil {
		t.Fatal(err)
	}
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 2})
	c.RunFor(time.Second)

	resp, err := c.Inst.Root().Call(0, "power-manager.status", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		PushFailures uint64           `json:"push_failures"`
		PushErrors   map[int32]string `json:"push_errors"`
	}
	if err := resp.Unmarshal(&body); err != nil {
		t.Fatal(err)
	}
	if body.PushFailures == 0 {
		t.Fatal("failed limit push not counted")
	}
	if body.PushErrors[1] == "" {
		t.Fatalf("rank 1 push error not recorded: %+v", body.PushErrors)
	}
	if body.PushErrors[0] != "" {
		t.Fatalf("healthy rank 0 recorded a push error: %+v", body.PushErrors)
	}
}

func TestReplyBytes(t *testing.T) {
	// Payloads captured when the status reply and the setlimit ack were
	// sorted-key maps; the typed replies must encode to the same bytes.
	c, err := cluster.New(cluster.Config{System: cluster.Lassen, Nodes: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Inst.Root().LoadModule(New(Config{Policy: PolicyProportional, GlobalCapW: 2400})); err != nil {
		t.Fatal(err)
	}
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 2})
	c.RunFor(time.Second)

	resp, err := c.Inst.Root().Call(0, "power-manager.status", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"allocations":[{"jobid":1,"ranks":[0,1],"per_node_w":1200,"job_limit_w":2400,"policy":"proportional"}],` +
		`"controller":{"mode":"","rounds":0,"retunes":0,"violations":0,"sustained_violations":0,"reclaimed_w_total":0,"granted_w_total":0,` +
		`"jobs":[{"jobid":1,"violations":0,"sustained_violations":0,"retunes":0,"last_obs_w":0,"cap_history":[{"sec":0,"per_node_w":1200}]}]},` +
		`"global_cap_w":2400,"limit_repushes":0,"policy":"proportional","push_ack_sec":{"0":[0]},"push_acks":{"0":1},` +
		`"push_errors":{"1":"msg: \"power-manager.node.setlimit\" failed: errno 38: rank 1 has no service for \"power-manager.node.setlimit\""},` +
		`"push_failures":1}`
	if got := string(resp.Payload); got != want {
		t.Fatalf("status payload\n got %s\nwant %s", got, want)
	}

	resp, err = c.Inst.Root().Call(0, "power-manager.node.setlimit", map[string]any{"limit_w": 1234.5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(resp.Payload), `{"limit_w":1234.5,"rank":0}`; got != want {
		t.Fatalf("setlimit ack %s, want %s", got, want)
	}
}
