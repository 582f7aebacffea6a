package powermon

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/query"
	"fluxpower/internal/simtime"
)

// monitored builds a cluster with the monitor loaded on every node.
func monitored(t *testing.T, system cluster.System, nodes int, cfg Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{System: system, Nodes: nodes, Seed: 3})
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

func TestQueryAggregatesJobPower(t *testing.T) {
	c := monitored(t, cluster.Lassen, 4, Config{})
	id, err := c.Submit(job.Spec{App: "laghos", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, idle := c.RunUntilIdle(time.Minute); !idle {
		t.Fatal("job never finished")
	}
	jp, err := NewClient(c.Inst.Root()).Query(id)
	if err != nil {
		t.Fatal(err)
	}
	if jp.JobID != id || jp.App != "laghos" {
		t.Fatalf("identity: %+v", jp)
	}
	if len(jp.Nodes) != 4 {
		t.Fatalf("nodes in result: %d", len(jp.Nodes))
	}
	if !jp.Complete() {
		t.Fatal("fresh buffers reported partial data")
	}
	// ~12.55 s at 2 s sampling: expect ~6 samples per node.
	for _, n := range jp.Nodes {
		if len(n.Samples) < 4 || len(n.Samples) > 8 {
			t.Fatalf("rank %d: %d samples for a 12.5 s job", n.Rank, len(n.Samples))
		}
		for _, s := range n.Samples {
			if s.Timestamp < jp.StartSec-1e-9 || s.Timestamp > jp.EndSec+1e-9 {
				t.Fatalf("sample at %.1f outside job window [%.1f,%.1f]", s.Timestamp, jp.StartSec, jp.EndSec)
			}
		}
	}
	sum, err := Summarize(jp)
	if err != nil {
		t.Fatal(err)
	}
	// Table II: Laghos ~473 W/node.
	if math.Abs(sum.AvgNodePowerW-473) > 25 {
		t.Fatalf("measured avg node power %.1f, want ~473", sum.AvgNodePowerW)
	}
	if sum.AvgMemW <= 0 {
		t.Fatalf("Lassen memory power should be measured, got %v", sum.AvgMemW)
	}
}

func TestQueryRunningJobUsesNow(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	id, _ := c.Submit(job.Spec{App: "gemm", Nodes: 2}) // ~274 s
	c.RunFor(30 * time.Second)
	jp, err := NewClient(c.Inst.Root()).Query(id)
	if err != nil {
		t.Fatal(err)
	}
	if jp.EndSec != 0 {
		t.Fatalf("running job has EndSec=%v", jp.EndSec)
	}
	total := 0
	for _, n := range jp.Nodes {
		total += len(n.Samples)
	}
	if total < 20 { // 2 nodes * ~15 samples
		t.Fatalf("running-job query returned %d samples", total)
	}
}

func TestQueryUnknownJob(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	if _, err := NewClient(c.Inst.Root()).Query(99); err == nil {
		t.Fatal("query for unknown job succeeded")
	}
}

func TestQueryQueuedJobFails(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 2})
	queued, _ := c.Submit(job.Spec{App: "gemm", Nodes: 2})
	c.RunFor(time.Second)
	if _, err := NewClient(c.Inst.Root()).Query(queued); err == nil {
		t.Fatal("query for not-yet-started job succeeded")
	}
}

func TestPartialDataFlagAfterEviction(t *testing.T) {
	// A 4-sample ring on a ~25 s Laghos job (12+ samples) must evict the
	// early window and flag the result as partial (§III-A).
	c := monitored(t, cluster.Lassen, 2, Config{BufferSamples: 4})
	id, _ := c.Submit(job.Spec{App: "laghos", Nodes: 2, SizeFactor: 2})
	if _, idle := c.RunUntilIdle(2 * time.Minute); !idle {
		t.Fatal("job never finished")
	}
	jp, err := NewClient(c.Inst.Root()).Query(id)
	if err != nil {
		t.Fatal(err)
	}
	if jp.Complete() {
		t.Fatal("evicted window still reported complete")
	}
}

func TestTiogaTelemetryHolesSurviveAggregation(t *testing.T) {
	c := monitored(t, cluster.Tioga, 2, Config{})
	id, _ := c.Submit(job.Spec{App: "quicksilver", Nodes: 2})
	if _, idle := c.RunUntilIdle(10 * time.Minute); !idle {
		t.Fatal("job never finished")
	}
	jp, err := NewClient(c.Inst.Root()).Query(id)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(jp)
	if err != nil {
		t.Fatal(err)
	}
	if sum.AvgMemW != -1 {
		t.Fatalf("Tioga memory power should be unsupported (-1), got %v", sum.AvgMemW)
	}
	// Per-OAM sensors: 4 entries of 2 GCDs each.
	for _, n := range jp.Nodes {
		for _, s := range n.Samples {
			if len(s.GPUWatts) != 4 || s.GPUsPerSensorEntry != 2 {
				t.Fatalf("Tioga GPU sensor shape: %d entries x %d", len(s.GPUWatts), s.GPUsPerSensorEntry)
			}
		}
	}
}

func TestCSVOutput(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	id, _ := c.Submit(job.Spec{App: "laghos", Nodes: 2})
	if _, idle := c.RunUntilIdle(time.Minute); !idle {
		t.Fatal("job never finished")
	}
	jp, err := NewClient(c.Inst.Root()).Query(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, jp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 5 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "jobid" || header[len(header)-1] != "complete" {
		t.Fatalf("CSV header: %v", header)
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(CSVHeader) {
			t.Fatalf("row width %d, want %d: %q", len(fields), len(CSVHeader), line)
		}
		if fields[len(fields)-1] != "true" {
			t.Fatalf("complete column: %q", line)
		}
	}
}

func TestSamplingIntervalConfigurable(t *testing.T) {
	c := monitored(t, cluster.Lassen, 1, Config{SampleInterval: 500 * time.Millisecond})
	id, _ := c.Submit(job.Spec{App: "laghos", Nodes: 1})
	if _, idle := c.RunUntilIdle(time.Minute); !idle {
		t.Fatal("job never finished")
	}
	jp, _ := NewClient(c.Inst.Root()).Query(id)
	// ~12.5 s at 0.5 s sampling: ~25 samples.
	if n := len(jp.Nodes[0].Samples); n < 20 || n > 30 {
		t.Fatalf("%d samples at 500ms interval for 12.5s job", n)
	}
}

func TestStatelessAgentKeepsSamplingWithoutJobs(t *testing.T) {
	c := monitored(t, cluster.Lassen, 1, Config{})
	c.RunFor(20 * time.Second)
	// No jobs ran, but the node-agent sampled anyway: that is what
	// "stateless" means in §III-A.
	resp, err := c.Inst.Root().Call(0, "power-monitor.collect", map[string]float64{
		"start_sec": 0, "end_sec": 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ns NodeSamples
	if err := resp.Unmarshal(&ns); err != nil {
		t.Fatal(err)
	}
	if len(ns.Samples) != 10 {
		t.Fatalf("idle sampling produced %d samples in 20s, want 10", len(ns.Samples))
	}
	// Idle Lassen node: ~400 W.
	for _, s := range ns.Samples {
		if math.Abs(s.TotalWatts()-400) > 10 {
			t.Fatalf("idle node sample %.1f W, want ~400", s.TotalWatts())
		}
	}
}

// TestCollectOldStyleBody pins the read's wire compatibility: a
// {"start_sec","end_sec"} body sent by topic name, as the chaos
// checker and examples/livemode send it, answers the window's raw
// samples with the node's hostname. The reply is the per-rank read's
// FetchReply; decoded as NodeSamples it still carries the samples and
// hostname those callers read.
func TestCollectOldStyleBody(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	c.RunFor(20 * time.Second)
	resp, err := c.Inst.Root().Call(1, "power-monitor.collect", map[string]float64{
		"start_sec": 0, "end_sec": 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	var reply query.FetchReply
	if err := resp.Unmarshal(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Rank != 1 || reply.Hostname != "lassen1" || reply.Source != query.SourceRaw ||
		!reply.Complete || len(reply.Samples) != 10 || len(reply.Buckets) != 0 {
		t.Fatalf("reply rank %d hostname %q source %q complete=%v %d samples %d buckets, want rank 1's 10 raw samples",
			reply.Rank, reply.Hostname, reply.Source, reply.Complete, len(reply.Samples), len(reply.Buckets))
	}
	var ns NodeSamples
	if err := resp.Unmarshal(&ns); err != nil {
		t.Fatal(err)
	}
	if ns.Hostname != "lassen1" || len(ns.Samples) != 10 {
		t.Fatalf("as NodeSamples: hostname %q, %d samples", ns.Hostname, len(ns.Samples))
	}
}

// TestStatusOneRPCPerRank: the root-agent's status asks each rank once,
// its store and broker health in one reply, so a status served to a
// client on another rank raises the root's issued RPCs by the instance
// size and still reports every rank's broker health.
func TestStatusOneRPCPerRank(t *testing.T) {
	const size = 6
	c := monitored(t, cluster.Lassen, size, Config{})
	c.RunFor(10 * time.Second)
	root := c.Inst.Root()
	before := root.Stats().RPCsIssued
	st, err := NewClient(c.Inst.Broker(1)).StatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Stats().RPCsIssued - before; got != size {
		t.Fatalf("status raised the root's issued RPCs by %d, want %d (one per rank)", got, size)
	}
	if st.Size != size || len(st.Ranks) != size || len(st.Unreachable) != 0 {
		t.Fatalf("status: size %d, %d ranks, unreachable %v", st.Size, len(st.Ranks), st.Unreachable)
	}
	for i, h := range st.Ranks {
		if h.Rank != int32(i) || h.Modules == 0 {
			t.Fatalf("rank %d health %+v", i, h)
		}
	}
}

func TestCollectWindowValidation(t *testing.T) {
	c := monitored(t, cluster.Lassen, 1, Config{})
	c.RunFor(5 * time.Second)
	if _, err := c.Inst.Root().Call(0, "power-monitor.collect", map[string]float64{
		"start_sec": 10, "end_sec": 5,
	}); err == nil {
		t.Fatal("inverted window accepted")
	}
	// JSON cannot carry a non-finite bound, but the collect and the
	// aggregate's Local share the window rule that refuses one.
	m := New(Config{})
	for _, w := range []query.PlanSpec{
		{StartSec: math.NaN(), EndSec: 5},
		{StartSec: 0, EndSec: math.NaN()},
		{StartSec: math.Inf(-1), EndSec: 5},
		{StartSec: 0, EndSec: math.Inf(1)},
	} {
		if _, _, err := m.window(w); err == nil {
			t.Fatalf("window %+v accepted", w)
		}
	}
}

func TestModuleRequiresHardware(t *testing.T) {
	// A broker with no hw.Node attached cannot host the monitor.
	inst, err := broker.NewInstance(broker.InstanceOptions{Size: 1, Scheduler: newScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Root().LoadModule(New(Config{})); err == nil {
		t.Fatal("monitor loaded without hardware")
	}
}

func newScheduler() *simtime.Scheduler { return simtime.NewScheduler() }

func TestMonitorStatsService(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{BufferSamples: 8})
	c.RunFor(30 * time.Second) // 15 samples into an 8-slot ring
	resp, err := c.Inst.Root().Call(1, "power-monitor.stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := resp.Unmarshal(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["ring_cap"].(float64) != 8 || stats["ring_len"].(float64) != 8 {
		t.Fatalf("ring shape: %+v", stats)
	}
	if stats["ring_evicted"].(float64) != 7 {
		t.Fatalf("evictions: %+v", stats)
	}
	if stats["samples_taken"].(float64) != 15 {
		t.Fatalf("samples: %+v", stats)
	}
	if stats["sample_interval_sec"].(float64) != 2 {
		t.Fatalf("interval: %+v", stats)
	}
	// Oldest surviving sample: t = 2*(15-8+1) = 16.
	if stats["oldest_sample_sec"].(float64) != 16 {
		t.Fatalf("oldest: %+v", stats)
	}
}

func TestPublishSamplesEvents(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{PublishSamples: true})
	var got []SamplePayload
	c.Inst.Root().Subscribe(SampleEvent, func(ev *msg.Message) {
		var p SamplePayload
		if err := ev.Unmarshal(&p); err == nil {
			got = append(got, p)
		}
	})
	c.RunFor(6 * time.Second)
	// 2 nodes sampling every 2 s for 6 s: 3 publishes each, all flooded
	// to the root.
	if len(got) != 6 {
		t.Fatalf("root saw %d sample events, want 6", len(got))
	}
	seen := map[int32]int{}
	for _, p := range got {
		seen[p.Rank]++
		if p.Sample.Timestamp <= 0 || p.Sample.TotalWatts() <= 0 {
			t.Fatalf("empty sample payload: %+v", p)
		}
		if p.Hostname == "" {
			t.Fatalf("sample event without hostname: %+v", p)
		}
	}
	if seen[0] != 3 || seen[1] != 3 {
		t.Fatalf("per-rank event counts: %v", seen)
	}
}

func TestNoSampleEventsByDefault(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	events := 0
	c.Inst.Root().Subscribe(SampleEvent, func(ev *msg.Message) { events++ })
	c.RunFor(6 * time.Second)
	if events != 0 {
		t.Fatalf("sample events published without PublishSamples: %d", events)
	}
}
