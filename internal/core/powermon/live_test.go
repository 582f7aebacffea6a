package powermon

import (
	"testing"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/hw"
)

// liveNodes builds n demand-loaded Lassen nodes for live-mode tests.
func liveNodes(t *testing.T, n int) []*hw.Node {
	t.Helper()
	nodes := make([]*hw.Node, n)
	for i := range nodes {
		node, err := hw.NewNode("live", hw.LassenConfig(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		node.SetDemand(hw.Demand{
			CPUW: []float64{150, 150},
			MemW: 80,
			GPUW: []float64{200, 200, 200, 200},
		})
		nodes[i] = node
	}
	return nodes
}

// TestLiveModeSampling runs the unmodified monitor module on a live TCP
// TBON with wall-clock timers — the deployment shape of the paper's
// production system. The node-agents sample concurrently on real timers;
// a collect RPC crosses real sockets.
func TestLiveModeSampling(t *testing.T) {
	nodes := liveNodes(t, 3)
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size:  3,
		Local: func(rank int32) any { return nodes[rank] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	if err := li.LoadModuleAll(func(rank int32) broker.Module {
		return New(Config{SampleInterval: 10 * time.Millisecond})
	}); err != nil {
		t.Fatal(err)
	}

	time.Sleep(200 * time.Millisecond) // real time: ~20 samples per node

	for rank := int32(0); rank < 3; rank++ {
		resp, err := li.Root().CallTimeout(rank, "power-monitor.collect",
			map[string]float64{"start_sec": 0, "end_sec": 3600}, 5*time.Second)
		if err != nil {
			t.Fatalf("rank %d collect over TCP: %v", rank, err)
		}
		var ns NodeSamples
		if err := resp.Unmarshal(&ns); err != nil {
			t.Fatal(err)
		}
		if len(ns.Samples) < 5 {
			t.Fatalf("rank %d collected %d samples in 200ms at 10ms interval", rank, len(ns.Samples))
		}
		if !ns.Complete {
			t.Fatal("fresh ring reported partial")
		}
		// 2x150 CPU + 80 mem + 4x200 GPU + 100 uncore = 1280 W.
		for _, s := range ns.Samples {
			if s.TotalWatts() < 1270 || s.TotalWatts() > 1290 {
				t.Fatalf("live sample %v W, want 1280", s.TotalWatts())
			}
		}
	}
}

// TestLiveJobPowerQuery is the acceptance test for the root-agent fan-out
// over live transports: a client submits a job through the live job
// manager, then queries its power end-to-end — root-agent resolves the
// job over a blocking RPC, fans collect requests to every node-agent
// concurrently over TCP, and aggregates the result.
func TestLiveJobPowerQuery(t *testing.T) {
	nodes := liveNodes(t, 3)
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size:  3,
		Local: func(rank int32) any { return nodes[rank] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	if err := li.LoadModuleAll(func(rank int32) broker.Module {
		return New(Config{SampleInterval: 10 * time.Millisecond})
	}); err != nil {
		t.Fatal(err)
	}
	if err := li.Root().LoadModule(job.NewManager([]int32{0, 1, 2})); err != nil {
		t.Fatal(err)
	}

	id, err := job.NewClient(li.Root()).Submit(job.Spec{App: "bench", Nodes: 3})
	if err != nil {
		t.Fatalf("submit over TCP: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // real time: ~10 samples per node

	jp, err := NewClient(li.Root()).Query(id)
	if err != nil {
		t.Fatalf("job power query over TCP: %v", err)
	}
	if jp.JobID != id || len(jp.Nodes) != 3 {
		t.Fatalf("query result identity: %+v", jp)
	}
	if !jp.Complete() {
		t.Fatal("fresh rings reported partial data")
	}
	for _, n := range jp.Nodes {
		if len(n.Samples) < 3 {
			t.Fatalf("rank %d contributed %d samples after 100ms at 10ms interval", n.Rank, len(n.Samples))
		}
	}
}

// TestLiveAggregateQuery runs the in-network aggregate path over live TCP
// links: a 7-broker binary TBON, so the reduction actually merges at
// internal ranks 1 and 2 before the partials reach the root.
func TestLiveAggregateQuery(t *testing.T) {
	const n = 7
	nodes := liveNodes(t, n)
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size:  n,
		Local: func(rank int32) any { return nodes[rank] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	if err := li.LoadModuleAll(func(rank int32) broker.Module {
		return New(Config{SampleInterval: 10 * time.Millisecond})
	}); err != nil {
		t.Fatal(err)
	}
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	if err := li.Root().LoadModule(job.NewManager(ranks)); err != nil {
		t.Fatal(err)
	}

	id, err := job.NewClient(li.Root()).Submit(job.Spec{App: "bench", Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	ja, err := NewClient(li.Root()).QueryAggregate(id)
	if err != nil {
		t.Fatalf("aggregate query over TCP: %v", err)
	}
	if ja.NodesQueried != n || ja.NodesReporting != n || ja.NodesWithData != n {
		t.Fatalf("node accounting: %+v", ja)
	}
	if ja.Partial || !ja.Complete {
		t.Fatalf("healthy instance: partial=%v complete=%v", ja.Partial, ja.Complete)
	}
	// 2x150 CPU + 80 mem + 4x200 GPU + 100 uncore = 1280 W per node.
	if ja.AvgNodePowerW < 1270 || ja.AvgNodePowerW > 1290 {
		t.Fatalf("aggregate avg node power %v W, want ~1280", ja.AvgNodePowerW)
	}
	if ja.SampleCount < n*3 {
		t.Fatalf("aggregate covers %d samples", ja.SampleCount)
	}
}

// TestLiveAggregateQueryDeadSubtree hangs internal rank 1's reduction
// service: its whole subtree {1,3,4} must be degraded to Partial within
// the timeout budget, not turned into a query failure.
func TestLiveAggregateQueryDeadSubtree(t *testing.T) {
	const n = 7
	const collectTimeout = 200 * time.Millisecond
	nodes := liveNodes(t, n)
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size:  n,
		Local: func(rank int32) any { return nodes[rank] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	for rank := int32(0); rank < n; rank++ {
		if rank == 1 {
			// Hung internal rank: reduction requests reach it but never
			// come back, taking leaves 3 and 4 down with it.
			if err := li.Broker(rank).RegisterService(ReduceTopic,
				func(req *broker.Request) {}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		mod := New(Config{SampleInterval: 10 * time.Millisecond, CollectTimeout: collectTimeout})
		if err := li.Broker(rank).LoadModule(mod); err != nil {
			t.Fatal(err)
		}
	}
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	if err := li.Root().LoadModule(job.NewManager(ranks)); err != nil {
		t.Fatal(err)
	}

	id, err := job.NewClient(li.Root()).Submit(job.Spec{App: "bench", Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	ja, err := NewClient(li.Root()).QueryAggregate(id)
	if err != nil {
		t.Fatalf("aggregate query with dead subtree failed outright: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*collectTimeout+time.Second {
		t.Fatalf("partial aggregate took %v, want ~%v", elapsed, collectTimeout)
	}
	if !ja.Partial || ja.Complete {
		t.Fatalf("dead subtree not flagged: %+v", ja)
	}
	if ja.NodesQueried != n || ja.NodesReporting != n-3 {
		t.Fatalf("node accounting with dead subtree {1,3,4}: %+v", ja)
	}
	if ja.AvgNodePowerW < 1270 || ja.AvgNodePowerW > 1290 {
		t.Fatalf("surviving aggregate avg %v W, want ~1280", ja.AvgNodePowerW)
	}
}

// TestLiveJobPowerQueryDeadNode degrades gracefully: with one node-agent
// hung (its collect service never answers), the query still returns
// within the configured per-node timeout, the dead node contributes an
// explicit empty record, and the job is flagged incomplete.
func TestLiveJobPowerQueryDeadNode(t *testing.T) {
	const collectTimeout = 150 * time.Millisecond
	nodes := liveNodes(t, 3)
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size:  3,
		Local: func(rank int32) any { return nodes[rank] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	// Healthy agents on ranks 0 and 1; rank 2's agent is hung — requests
	// reach it but no response ever comes back.
	for rank := int32(0); rank < 2; rank++ {
		mod := New(Config{SampleInterval: 10 * time.Millisecond, CollectTimeout: collectTimeout})
		if err := li.Broker(rank).LoadModule(mod); err != nil {
			t.Fatal(err)
		}
	}
	if err := li.Broker(2).RegisterService("power-monitor.collect", func(req *broker.Request) {}); err != nil {
		t.Fatal(err)
	}
	if err := li.Root().LoadModule(job.NewManager([]int32{0, 1, 2})); err != nil {
		t.Fatal(err)
	}

	id, err := job.NewClient(li.Root()).Submit(job.Spec{App: "bench", Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	jp, err := NewClient(li.Root()).Query(id)
	if err != nil {
		t.Fatalf("query with a dead node failed outright: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*collectTimeout+time.Second {
		t.Fatalf("partial query took %v, want ~%v", elapsed, collectTimeout)
	}
	if jp.Complete() {
		t.Fatal("dead node not reflected in completeness")
	}
	if len(jp.Nodes) != 3 {
		t.Fatalf("result has %d node entries, want 3 (dead node included)", len(jp.Nodes))
	}
	for _, n := range jp.Nodes {
		switch n.Rank {
		case 2:
			if n.Complete || len(n.Samples) != 0 {
				t.Fatalf("dead rank 2 entry: complete=%v samples=%d", n.Complete, len(n.Samples))
			}
		default:
			if !n.Complete || len(n.Samples) < 3 {
				t.Fatalf("healthy rank %d entry: complete=%v samples=%d", n.Rank, n.Complete, len(n.Samples))
			}
		}
	}
}

// TestLiveAggregateCollectScan reads one running job's window over live
// TCP while every node agent samples on its own wall-clock timer. As
// the window grows, the aggregate moves from an in-place ring scan to
// an in-place tier scan, and the collect from a ring copy to the
// durable store. Under -race it is the check that each planned read
// runs under the monitor lock.
func TestLiveAggregateCollectScan(t *testing.T) {
	const n = 3
	nodes := liveNodes(t, n)
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size:  n,
		Local: func(rank int32) any { return nodes[rank] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	dir := t.TempDir()
	if err := li.LoadModuleAll(func(rank int32) broker.Module {
		return New(Config{
			SampleInterval: 5 * time.Millisecond,
			BufferSamples:  40,
			MaxRawPoints:   50,
			Tiers:          []TierSpec{{Period: 50 * time.Millisecond, Buckets: 100}},
			StoreDir:       dir,
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := li.Root().LoadModule(job.NewManager([]int32{0, 1, 2})); err != nil {
		t.Fatal(err)
	}
	jobs := job.NewClient(li.Root())
	id, err := jobs.Submit(job.Spec{App: "bench", Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		rec, err := jobs.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Ranks) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never started", id)
		}
		time.Sleep(time.Millisecond)
	}
	client := NewClient(li.Root())
	var tiered, stored bool
	// ~200 ms of samples outgrow the ring and 250 ms the raw-point cap;
	// keep reading until both reads have switched.
	for deadline := time.Now().Add(5 * time.Second); !tiered || !stored; {
		if time.Now().After(deadline) {
			t.Fatalf("the window never outgrew the ring: tier read %v, store read %v", tiered, stored)
		}
		ja, err := client.QueryAggregate(id)
		if err != nil {
			t.Fatalf("aggregate: %v", err)
		}
		if ja.Partial || !ja.Complete || ja.NodesReporting != n {
			t.Fatalf("aggregate of a healthy instance: %+v", ja)
		}
		if ja.NodesWithData == n && (ja.AvgNodePowerW < 1270 || ja.AvgNodePowerW > 1290) {
			t.Fatalf("aggregate avg node power %v W, want ~1280", ja.AvgNodePowerW)
		}
		tiered = tiered || ja.TierSec > 0
		jp, err := client.Query(id)
		if err != nil {
			t.Fatalf("collect: %v", err)
		}
		if len(jp.Nodes) != n || !jp.Complete() {
			t.Fatalf("collect of a healthy instance: %d nodes, complete=%v", len(jp.Nodes), jp.Complete())
		}
		for _, ns := range jp.Nodes {
			stored = stored || ns.Source == "tsdb"
		}
	}
}
