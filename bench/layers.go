package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"fluxpower/internal/apps"
	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/fanout"
	"fluxpower/internal/fft"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/kvs"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/reduce"
	"fluxpower/internal/hw"
	"fluxpower/internal/powerapi"
	"fluxpower/internal/query"
	"fluxpower/internal/ringbuf"
	"fluxpower/internal/sched"
	"fluxpower/internal/simtime"
	"fluxpower/internal/stats"
	"fluxpower/internal/tsdb"
	"fluxpower/internal/variorum"
)

// The layer pass calls each layer directly, in a loop, on inputs taken
// from a small fixture cluster that has every module loaded, and reports
// the median wall time per call with heap allocations per call beside it.
// It is the same for every workload: the workloads say how often a layer
// is called and on what, the layer pass says what one call costs.

// loopStat is what timeLoop measured.
type loopStat struct {
	ns     float64 // median wall time of one call
	allocs float64 // heap allocations per call
	bytes  float64 // heap bytes per call
}

func (s loopStat) us() float64 { return s.ns / 1e3 }
func (s loopStat) ms() float64 { return s.ns / 1e6 }

// sink keeps results alive so the compiler cannot drop the measured call.
var sink any

// timeLoop times n batches of batch calls each and returns the median
// time of one call. Calls far below a microsecond need a batch so the
// clock reads do not dominate.
func timeLoop(e *env, name string, n, batch int, fn func()) loopStat {
	sp := e.tr.begin("layer." + name)
	defer e.tr.end(sp)
	fn() // first call pays one-time costs
	per := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range per {
		t := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		per[i] = float64(time.Since(t)) / float64(batch)
	}
	runtime.ReadMemStats(&m1)
	calls := float64(n * batch)
	sort.Float64s(per)
	return loopStat{
		ns:     quantile(per, 0.5),
		allocs: float64(m1.Mallocs-m0.Mallocs) / calls,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / calls,
	}
}

// fixture is the layer pass's cluster: 16 Lassen nodes inside running
// jobs, powermon with a durable store and publishing on, the query
// engine, the power manager with its controller, a counting reducer, and
// a gateway, run long enough that rings have wrapped and blocks sealed.
type fixture struct {
	c     *cluster.Cluster
	mons  []*powermon.Module
	count *reduce.Reducer[int]
	hub   *fanout.Hub
	gw    *powerapi.Gateway
	jobs  []uint64
	// first keeps job 0's fan-out ring alive from before the first frame.
	first *fanout.Subscriber
	now   float64
}

const (
	fixtureNodes = 16
	fleetNodes   = 64 // the managed and unmanaged fleets powermgr.round_ms compares
)

func newFixture(e *env, dir string) (*fixture, error) {
	f := &fixture{}
	c, err := plainCluster(e, cluster.Config{Nodes: fixtureNodes})
	if err != nil {
		return nil, err
	}
	f.c = c
	f.mons, err = loadMonitors(c, powermon.Config{
		StoreDir:       filepath.Join(dir, "fixture-store"),
		Store:          tsdb.Config{BlockSamples: blockSamples},
		PublishSamples: true,
	})
	if err != nil {
		return nil, err
	}
	err = c.Inst.LoadModuleAll(func(int32) broker.Module {
		return query.New(query.Config{Source: func(rank int32) query.Source { return f.mons[rank] }})
	})
	if err != nil {
		return nil, err
	}
	err = c.Inst.LoadModuleAll(func(int32) broker.Module { return managed(fixtureNodes, powermgr.ControllerRetune) })
	if err != nil {
		return nil, err
	}
	err = c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return broker.ModuleFuncs{NameFn: "bench-count", InitFn: func(ctx *broker.Context) error {
			r, err := reduce.Register(ctx, "bench-count.reduce", reduce.CountOp(), reduce.Config{})
			if rank == 0 {
				f.count = r
			}
			return err
		}}
	})
	if err != nil {
		return nil, err
	}
	src, err := newJobSource(rand.New(rand.NewSource(e.o.Seed)),
		queueShape{MinNodes: 2, MaxNodes: 8, MinSec: 60, MaxSec: 600}, "")
	if err != nil {
		return nil, err
	}
	if f.jobs, err = fillWithJobs(c, src, 4); err != nil {
		return nil, err
	}
	if f.hub, err = fanout.New(fanout.Config{Broker: c.Inst.Root(), RingFrames: streamRingFrames}); err != nil {
		return nil, err
	}
	if f.gw, err = powerapi.New(powerapi.Config{Hub: f.hub}); err != nil {
		return nil, err
	}
	c.RunFor(streamOp)
	if f.first, err = f.hub.Attach(context.Background(), f.jobs[0], fanout.AttachOptions{}); err != nil {
		return nil, err
	}
	for i := 0; i < 120; i++ { // 1200 simulated seconds: ring wrapped, two blocks sealed
		f.hub.Sync(func() { c.RunFor(ingestOp) })
	}
	f.now = c.Now().Seconds()
	return f, nil
}

func (f *fixture) close() {
	f.first.Close()
	f.gw.Close()
	f.hub.Close()
	_ = f.c.Inst.UnloadModuleAll(powermon.ModuleName)
	f.c.Close()
}

// plainCluster builds a cluster without the traced link seam: the layer
// pass records one span per loop, and a span per message inside a timed
// loop would be measured along with the layer.
func plainCluster(e *env, cfg cluster.Config) (*cluster.Cluster, error) {
	cfg.System = cluster.Lassen
	cfg.Seed = e.o.Seed
	return cluster.New(cfg)
}

func layerPass(e *env, m metricSet) error {
	e.tr.on.Store(true)
	defer e.tr.on.Store(false)
	sp := e.tr.beginReq("layer-pass")
	defer e.tr.end(sp)
	dir := filepath.Join(e.dir, "layers")
	f, err := newFixture(e, dir)
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	defer f.close()
	layerLeaves(e, f, m)
	if err := layerStore(e, f, dir, m); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	if err := layerFabric(e, f, m); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	if err := layerQuery(e, f, m); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if err := layerStream(e, f, m); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := layerFleet(e, m); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// layerLeaves covers the packages that need no cluster: hw, variorum,
// apps, simtime, sched, ringbuf, msg, fft, stats.
func layerLeaves(e *env, f *fixture, m metricSet) {
	cfg := hw.LassenConfig()
	node, _ := hw.NewNode("bench0", cfg, e.o.Seed)
	node.SetDemand(hw.Demand{CPUW: []float64{150, 150}, MemW: 80, GPUW: []float64{200, 200, 200, 200}})
	now := simtime.Time(0)
	var reading hw.Reading
	s := timeLoop(e, "hw.ReadInto", 200, 200, func() { now += 2e9; node.ReadInto(now, &reading) })
	m.set("hw.read_into_ns", s.ns)
	m.set("hw.read_into_allocs", s.allocs)
	caps := [2]float64{1500, 2000}
	i := 0
	s = timeLoop(e, "hw.SetNodeCap", 200, 200, func() { i++; _ = node.SetNodeCap(caps[i&1]) })
	m.set("hw.set_node_cap_ns", s.ns)

	s = timeLoop(e, "variorum.GetNodePower", 200, 200, func() { now += 2e9; sink = variorum.GetNodePower(node, now) })
	m.set("variorum.get_node_power_ns", s.ns)
	m.set("variorum.get_node_power_allocs", s.allocs)
	s = timeLoop(e, "variorum.CapNode", 200, 200, func() { i++; _ = variorum.CapBestEffortNodePowerLimit(node, caps[i&1]) })
	m.set("variorum.cap_node_ns", s.ns)

	profile, _ := apps.Lookup("gemm")
	inst, _ := apps.NewInstance(profile, hw.ArchIBMPower9, 8, 1, 1, e.o.Seed)
	s = timeLoop(e, "apps.Demand", 200, 200, func() { sink = inst.Demand(cfg) })
	m.set("apps.demand_ns", s.ns)

	sch := simtime.NewShardedScheduler(2)
	fire := func(simtime.Time) {}
	s = timeLoop(e, "simtime.Event", 200, 200, func() {
		sch.EventAfter(1, time.Millisecond, fire)
		sch.Advance(time.Millisecond)
	})
	m.set("simtime.event_ns", s.ns)
	m.set("simtime.event_allocs", s.allocs)

	// Dispatch at the managed fleet's scale: 792 free nodes, a queue of 64.
	policy, _ := sched.New(sched.PolicyPowerAware)
	disp := sched.NewDispatcher(sched.NewPoolRange(0, controlNodes), policy, nodeBudgetW*controlNodes)
	queue := make([]sched.Job, 64)
	for i := range queue {
		queue[i] = sched.Job{ID: uint64(i + 1), App: "gemm", Nodes: 2 + i%30, PredNodeW: 900 + float64(i%7)*40}
	}
	s = timeLoop(e, "sched.Dispatch", 100, 1, func() {
		for _, a := range disp.Dispatch(queue) {
			disp.Release(a.ID, a.Ranks)
		}
	})
	m.set("sched.dispatch_us", s.us())
	m.set("sched.dispatch_allocs", s.allocs)
	pred := sched.NewPredictor(cfg, sched.PredictorConfig{})
	s = timeLoop(e, "sched.Predict", 200, 200, func() { sink = pred.Predict("gemm", 8) })
	m.set("sched.predict_ns", s.ns)

	samples := f.mons[1].QueryRaw(0, math.Inf(1))
	ring := ringbuf.New[variorum.NodePower](bufferSamples)
	for _, p := range samples {
		ring.Push(p)
	}
	s = timeLoop(e, "ringbuf.Push", 200, 200, func() { i++; ring.Push(samples[i%len(samples)]) })
	m.set("ringbuf.push_ns", s.ns)
	ring.Reset()
	for _, p := range samples {
		ring.Push(p)
	}
	ts := func(p variorum.NodePower) float64 { return p.Timestamp }
	s = timeLoop(e, "ringbuf.SelectRange", 200, 20, func() { sink = ring.SelectRange(f.now-200, f.now-100, ts) })
	m.set("ringbuf.select_range_ns", s.ns)

	// The message every sample becomes when publishing is on.
	ev, _ := msg.NewEvent(powermon.SampleEvent, 3, 7, powermon.SamplePayload{Rank: 3, Hostname: "lassen3", Sample: samples[0]})
	var buf bytes.Buffer
	s = timeLoop(e, "msg.Encode", 200, 50, func() { buf.Reset(); _ = ev.Encode(&buf) })
	m.set("msg.encode_ns", s.ns)
	m.set("msg.encode_allocs", s.allocs)
	wire := append([]byte(nil), buf.Bytes()...)
	s = timeLoop(e, "msg.Decode", 200, 50, func() { sink, _ = msg.Decode(bytes.NewReader(wire)) })
	m.set("msg.decode_ns", s.ns)
	m.set("msg.decode_allocs", s.allocs)
	s = timeLoop(e, "msg.EncodedSize", 200, 50, func() { sink = ev.EncodedSize() })
	m.set("msg.encoded_size_ns", s.ns)

	wave := fft.SquareWave(64, 2, 12, 0.25, 35, 165, 2)
	s = timeLoop(e, "fft.DetectPeriod", 200, 5, func() { sink, _, _ = fft.SpectralDetector{}.DetectPeriod(wave, 2) })
	m.set("fft.period_us", s.us())
	m.set("fft.period_allocs", s.allocs)

	h, h2 := stats.NewHistogram(0.01, 60_000, 64), stats.NewHistogram(0.01, 60_000, 64)
	s = timeLoop(e, "stats.Observe", 200, 200, func() { i++; h.Observe(float64(i%5000) / 7) })
	m.set("stats.hist_observe_ns", s.ns)
	s = timeLoop(e, "stats.Merge", 200, 200, func() { _ = h2.MergeHistogram(h) })
	m.set("stats.hist_merge_ns", s.ns)
}

// layerStore measures a tsdb store of its own, fed the fixture's samples.
func layerStore(e *env, f *fixture, dir string, m metricSet) error {
	cfg := tsdb.Config{BlockSamples: blockSamples}
	path := filepath.Join(dir, "tsdb")
	st, err := tsdb.Open(path, cfg)
	if err != nil {
		return err
	}
	samples := f.mons[1].QueryRaw(0, math.Inf(1))
	var appendErr error
	n := 0
	next := func() variorum.NodePower {
		p := samples[n%len(samples)]
		p.Timestamp = float64(n) * 2
		n++
		return p
	}
	s := timeLoop(e, "tsdb.Append", 1200, 1, func() {
		if err := st.Append(next()); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	m.set("tsdb.append_ns", s.ns)
	m.set("tsdb.append_allocs", s.allocs)
	m.set("tsdb.append_bytes", s.bytes)
	if st.Health().SealedBlocks < 2 {
		return fmt.Errorf("%d sealed blocks after %d appends", st.Health().SealedBlocks, n)
	}
	// Each pass follows a few fresh appends, as the module's timer does.
	s = timeLoop(e, "tsdb.Maintain", 20, 1, func() {
		for i := 0; i < 5; i++ {
			_ = st.Append(next())
		}
		_ = st.Maintain(float64(n) * 2)
	})
	m.set("tsdb.maintain_ms", s.ms())
	m.set("tsdb.maintain_allocs", s.allocs)
	s = timeLoop(e, "tsdb.SelectRange", 30, 1, func() { sink, _ = st.SelectRange(300, 700) })
	m.set("tsdb.select_range_ms", s.ms())
	s = timeLoop(e, "tsdb.SelectTier", 50, 10, func() { sink = st.SelectTier(60, 0, math.Inf(1)) })
	m.set("tsdb.select_tier_ms", s.ms())
	if err := st.Close(); err != nil {
		return err
	}
	var openErr error
	s = timeLoop(e, "tsdb.Recover", 7, 1, func() {
		s2, err := tsdb.Open(path, cfg)
		if err != nil {
			openErr = err
			return
		}
		_ = s2.Close()
	})
	m.set("tsdb.recover_ms", s.ms())
	return openErr
}

// layerFabric covers the broker fabric and what rides on it: kvs, RPC,
// events, reduce, powermon's services.
func layerFabric(e *env, f *fixture, m metricSet) error {
	root := f.c.Inst.Root()
	leaf := int32(fixtureNodes - 1)
	var callErr error
	call := func(rank int32) func() {
		return func() {
			if _, err := root.Call(rank, "broker.ping", nil); err != nil {
				callErr = err
			}
		}
	}
	s := timeLoop(e, "broker.Call.leaf", 200, 5, call(leaf))
	m.set("broker.rpc_leaf_us", s.us())
	m.set("broker.rpc_leaf_allocs", s.allocs)
	near := timeLoop(e, "broker.Call.child", 200, 5, call(1))
	m.set("broker.rpc_per_hop_us", (s.us()-near.us())/float64(broker.TreeDepth(leaf, 2)-1))
	s = timeLoop(e, "broker.Publish", 200, 1, func() { _ = root.Publish("bench.tick", map[string]int{"n": 1}) })
	m.set("broker.event_publish_us", s.us())
	m.set("broker.event_publish_allocs", s.allocs)
	if callErr != nil {
		return callErr
	}

	kv := kvs.NewClient(f.c.Inst.Broker(leaf))
	var got int
	s = timeLoop(e, "kvs.PutGet", 100, 1, func() {
		_ = kv.Put("bench.key", 42)
		_ = kv.Get("bench.key", &got)
	})
	if got != 42 {
		return fmt.Errorf("kvs read back %d", got)
	}
	m.set("kvs.put_get_us", s.us())

	var ranks int
	s = timeLoop(e, "reduce.Count", 100, 1, func() {
		res, _ := f.count.Reduce(nil, nil, 5*time.Second)
		ranks = res.Ranks
	})
	if ranks != fixtureNodes {
		return fmt.Errorf("count reduction reached %d of %d ranks", ranks, fixtureNodes)
	}
	m.set("reduce.count_ms", s.ms())
	m.set("reduce.count_allocs", s.allocs)

	// Module load on a bare cluster of the fixture's size, memory-only.
	sp := e.tr.begin("layer.powermon.Load")
	var loadMs []float64
	for i := 0; i < 5; i++ {
		c, err := plainCluster(e, cluster.Config{Nodes: fixtureNodes})
		if err != nil {
			return err
		}
		t := time.Now()
		_, err = loadMonitors(c, powermon.Config{})
		loadMs = append(loadMs, float64(time.Since(t))/float64(time.Millisecond))
		c.Close()
		if err != nil {
			return err
		}
	}
	e.tr.end(sp)
	m.set("powermon.module_load_ms", median(loadMs))

	pm := powermon.NewClient(root)
	ctx := context.Background()
	var rpcErr error
	s = timeLoop(e, "powermon.Collect", 100, 1, func() {
		if _, err := pm.CollectNodeContext(ctx, leaf, f.now-100, f.now); err != nil {
			rpcErr = err
		}
	})
	m.set("powermon.collect_rpc_us", s.us())
	s = timeLoop(e, "powermon.QueryRaw", 20, 1, func() {
		if _, err := pm.QueryContext(ctx, f.jobs[0]); err != nil {
			rpcErr = err
		}
	})
	m.set("powermon.query_raw_ms", s.ms())
	m.set("powermon.query_raw_allocs", s.allocs)
	s = timeLoop(e, "powermon.QueryAgg", 50, 1, func() {
		if _, err := pm.QueryAggregateContext(ctx, f.jobs[0]); err != nil {
			rpcErr = err
		}
	})
	m.set("powermon.query_agg_ms", s.ms())
	return rpcErr
}

// layerQuery covers the query engine's parts and the gateway's hit path.
func layerQuery(e *env, f *fixture, m metricSet) error {
	const expr = "avg by (job) (avg_over_time(node_power_watts[2h]))"
	s := timeLoop(e, "query.Parse", 200, 10, func() { sink, _ = query.Parse(expr) })
	m.set("query.parse_us", s.us())
	m.set("query.parse_allocs", s.allocs)

	qc := query.NewClient(f.c.Inst.Root())
	spec, err := qc.Plan(expr, f.now-600, f.now)
	if err != nil {
		return err
	}
	replies := qc.FetchAll(spec, fixtureNodes)
	if len(replies) != fixtureNodes {
		return fmt.Errorf("fetched %d of %d ranks", len(replies), fixtureNodes)
	}
	ex, err := query.Parse(spec.Expr)
	if err != nil {
		return err
	}
	s = timeLoop(e, "query.FoldLocal", 200, 1, func() { sink = query.FoldLocal(ex, spec, 1, replies[1].LocalData) })
	m.set("query.fold_local_us", s.us())
	m.set("query.fold_local_allocs", s.allocs)
	a := query.FoldLocal(ex, spec, 1, replies[1].LocalData)
	b := query.FoldLocal(ex, spec, 2, replies[2].LocalData)
	s = timeLoop(e, "query.MergePartial", 200, 20, func() { sink, _ = query.MergePartial(a, b) })
	m.set("query.merge_partial_ns", s.ns)
	var evalErr error
	n := 0
	s = timeLoop(e, "query.Eval", 50, 1, func() {
		n++
		sp := e.tr.begin("query.Client.Eval")
		_, err := qc.Eval(expr, f.now-600+float64(n)*1e-3, f.now)
		e.tr.end(sp)
		if err != nil {
			evalErr = err
		}
	})
	m.set("query.eval_ms", s.ms())
	m.set("query.eval_allocs", s.allocs)
	if evalErr != nil {
		return evalErr
	}

	target := queryURL(expr, f.now-600, f.now)
	code := 0
	s = timeLoop(e, "powerapi.hit", 200, 5, func() {
		rec := httptest.NewRecorder()
		f.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		code = rec.Code
	})
	if code != http.StatusOK {
		return fmt.Errorf("cached query answered %d", code)
	}
	m.set("powerapi.hit_us", s.us())
	m.set("powerapi.hit_allocs", s.allocs)
	return nil
}

// replayFrames is how far behind the ring head the delivery loops resume:
// the backlog they then drain is what gets timed.
const replayFrames = 400

// replayClient is an SSE client that signals once it has been written
// replayFrames frames.
type replayClient struct {
	frames int
	done   chan struct{}
	header http.Header
}

func (c *replayClient) Header() http.Header { return c.header }
func (c *replayClient) WriteHeader(int)     {}
func (c *replayClient) Flush()              {}
func (c *replayClient) Write(p []byte) (int, error) {
	if c.frames++; c.frames == replayFrames {
		close(c.done)
	}
	return len(p), nil
}

// layerStream covers the hub's attach, cursor read and SSE write paths
// by replaying the newest replayFrames frames of the fixture's ring.
func layerStream(e *env, f *fixture, m metricSet) error {
	ctx := context.Background()
	id := f.jobs[0]
	// A fresh subscriber's first frame is the snapshot, stamped with the
	// ring's head sequence.
	probe, err := f.hub.Attach(ctx, id, fanout.AttachOptions{})
	if err != nil {
		return err
	}
	frames, err := probe.Next(drained, nil)
	probe.Close()
	if err != nil {
		return err
	}
	head := frames[0].Seq
	if head < streamRingFrames {
		return fmt.Errorf("ring head %d: not wrapped", head)
	}
	resume := fanout.AttachOptions{ResumeSeq: head - replayFrames, HasResume: true}

	var attachErr error
	s := timeLoop(e, "fanout.Attach", 200, 1, func() {
		sub, err := f.hub.Attach(ctx, id, resume)
		if err != nil {
			attachErr = err
			return
		}
		sub.Close()
	})
	if attachErr != nil {
		return attachErr
	}
	m.set("fanout.attach_us", s.us())

	got := 0
	s = timeLoop(e, "fanout.Next", 30, 1, func() {
		sub, err := f.hub.Attach(ctx, id, resume)
		if err != nil {
			return
		}
		got = 0
		for {
			frames, err := sub.Next(drained, nil)
			if err != nil {
				break
			}
			got += len(frames)
		}
		sub.Close()
	})
	if got != replayFrames {
		return fmt.Errorf("cursor replayed %d frames, want %d", got, replayFrames)
	}
	m.set("fanout.next_ns_per_frame", (s.ns-m["fanout.attach_us"]*1e3)/replayFrames)

	// The handler replays the same backlog to a client that presents a
	// Last-Event-ID: the time from the request to the last frame written,
	// per frame, is the SSE write path.
	target := fmt.Sprintf("/v1/jobs/%d/stream", id)
	sp := e.tr.begin("layer.powerapi.sse")
	var perFrameUs []float64
	for i := 0; i < 15; i++ {
		cctx, cancel := context.WithCancel(ctx)
		req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(cctx)
		req.Header.Set("Last-Event-ID", strconv.FormatUint(head-replayFrames, 10))
		cl := &replayClient{done: make(chan struct{}), header: http.Header{}}
		var wg sync.WaitGroup
		wg.Add(1)
		t := time.Now()
		go func() {
			defer wg.Done()
			f.gw.ServeHTTP(cl, req)
		}()
		<-cl.done
		perFrameUs = append(perFrameUs, float64(time.Since(t))/1e3/replayFrames)
		cancel()
		wg.Wait()
	}
	e.tr.end(sp)
	m.set("powerapi.sse_write_us_per_frame", median(perFrameUs))
	return nil
}

// layerFleet covers what needs a cluster of its own: an idle round and a
// submission on an unmanaged fleet, and the power manager's share of a
// control period as the difference between a managed fleet and the same
// fleet with the controller off.
func layerFleet(e *env, m metricSet) error {
	build := func(mode string) (*cluster.Cluster, error) {
		c, err := plainCluster(e, cluster.Config{Nodes: fleetNodes})
		if err != nil {
			return nil, err
		}
		if _, err := loadMonitors(c, powermon.Config{}); err != nil {
			return nil, err
		}
		err = c.Inst.LoadModuleAll(func(int32) broker.Module { return managed(fleetNodes, mode) })
		return c, err
	}
	on, err := build(powermgr.ControllerRetune)
	if err != nil {
		return err
	}
	defer on.Close()
	off, err := build(powermgr.ControllerOff)
	if err != nil {
		return err
	}
	defer off.Close()

	s := timeLoop(e, "cluster.RunFor.idle", 30, 1, func() { off.RunFor(controlOp) })
	m.set("cluster.idle_round_us", s.us())

	for _, c := range []*cluster.Cluster{on, off} {
		src, err := newJobSource(rand.New(rand.NewSource(e.o.Seed)),
			queueShape{MinNodes: 2, MaxNodes: 16, MinSec: 60, MaxSec: 600}, "")
		if err != nil {
			return err
		}
		if _, err := fillWithJobs(c, src, 8); err != nil {
			return err
		}
		c.RunFor(10 * controlOp)
	}
	// Alternate the two fleets so both see the same machine conditions.
	var onNs, offNs []float64
	for i := 0; i < 30; i++ {
		t := time.Now()
		on.RunFor(controlOp)
		onNs = append(onNs, float64(time.Since(t)))
		t = time.Now()
		off.RunFor(controlOp)
		offNs = append(offNs, float64(time.Since(t)))
	}
	m.set("powermgr.round_ms", (median(onNs)-median(offNs))/1e6)

	// The fleet is full, so these queue: the cost of a submission alone.
	var submitErr error
	s = timeLoop(e, "cluster.Submit", 30, 1, func() {
		if _, err := off.Submit(specFor("laghos", 4, 60, 0)); err != nil {
			submitErr = err
		}
	})
	if submitErr != nil {
		return submitErr
	}
	m.set("cluster.submit_us", s.us())

	pm := powermgr.NewClient(on.Inst.Root())
	var pmErr error
	budget := [2]float64{nodeBudgetW * fleetNodes, nodeBudgetW * fleetNodes * 0.99}
	i := 0
	s = timeLoop(e, "powermgr.SetGlobalCap", 30, 1, func() {
		i++
		if err := pm.SetGlobalCap(budget[i&1]); err != nil {
			pmErr = err
		}
	})
	m.set("powermgr.set_global_cap_ms", s.ms())
	s = timeLoop(e, "powermgr.Status", 30, 1, func() {
		if _, _, _, err := pm.Status(); err != nil {
			pmErr = err
		}
	})
	m.set("powermgr.status_ms", s.ms())
	return pmErr
}
