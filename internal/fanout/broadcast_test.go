package fanout_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fluxpower/internal/fanout"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/powerapi"
	"fluxpower/internal/stats"
)

// Bounds on the broadcast plane. Delivery latency is wall clock from a
// frame entering its ring to a client's Write seeing it, so the p99 is
// about how long one full fan-out of a sample burst takes. Each frame is
// rendered once and its bytes shared, so allocations per delivered
// frame stay O(1) and small.
const (
	broadcastMaxP99Ms        = 2_000.0
	broadcastMaxAllocsPerEvt = 2.0
)

// sseSink is one SSE client: an http.ResponseWriter that parses each
// frame's leading "id: <seq>" line without allocating and, while
// recording is set, records the delivery latency against the ring's
// publish time.
type sseSink struct {
	hub       *fanout.Hub
	jobID     uint64
	recording *atomic.Bool
	lat       *latShard
}

// latShard is a locked latency histogram. Sinks are spread over shards
// so thousands of concurrent Writes do not serialize on one lock.
type latShard struct {
	mu sync.Mutex
	h  *stats.Histogram
}

func (s *sseSink) Header() http.Header { return http.Header{} }
func (s *sseSink) WriteHeader(int)     {}
func (s *sseSink) Flush()              {}

func (s *sseSink) Write(p []byte) (int, error) {
	if !s.recording.Load() || len(p) < 5 || string(p[:4]) != "id: " {
		return len(p), nil
	}
	var seq uint64
	for _, b := range p[4:] {
		if b == '\n' {
			break
		}
		if b < '0' || b > '9' {
			return len(p), nil
		}
		seq = seq*10 + uint64(b-'0')
	}
	if at, ok := s.hub.FrameTime(s.jobID, seq); ok {
		s.lat.mu.Lock()
		s.lat.h.Observe(float64(time.Since(at)) / float64(time.Millisecond))
		s.lat.mu.Unlock()
	}
	return len(p), nil
}

// TestBroadcastPlaneScale streams one running job on an 8-node Lassen to
// 1 k and 10 k SSE clients through two gateway replicas sharing a hub,
// over the full HTTP handler path. Over three 2 s sampling bursts it
// requires exactly one upstream bus subscription, every frame delivered
// to every client, no evictions, p99 delivery latency within
// broadcastMaxP99Ms and allocations per delivered frame within
// broadcastMaxAllocsPerEvt.
func TestBroadcastPlaneScale(t *testing.T) {
	for _, clients := range []int{1_000, 10_000} {
		t.Run(fmt.Sprintf("%d_clients", clients), func(t *testing.T) { broadcastRow(t, clients) })
	}
}

func broadcastRow(t *testing.T, clients int) {
	const nodes, replicas, bursts = 8, 2, 3
	c := testCluster(t, nodes)
	hub, err := fanout.New(fanout.Config{Broker: c.Inst.Root(), RingFrames: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	var gws [replicas]*powerapi.Gateway
	for i := range gws {
		if gws[i], err = powerapi.New(powerapi.Config{Hub: hub}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gws[i].Close)
	}
	// One long job owns the whole machine; RepFactor stretches it far
	// past the measured window.
	id, err := c.Submit(job.Spec{App: "gemm", Nodes: nodes, RepFactor: 100})
	if err != nil {
		t.Fatal(err)
	}
	hub.Sync(func() { c.RunFor(5 * time.Second) })

	var recording atomic.Bool
	shards := make([]latShard, 64)
	for i := range shards {
		shards[i].h = stats.NewHistogram(0.01, 600_000, 64)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	path := fmt.Sprintf("/v1/jobs/%d/stream", id)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
			sink := &sseSink{hub: hub, jobID: id, recording: &recording, lat: &shards[i%len(shards)]}
			gws[i%replicas].ServeHTTP(sink, req)
		}(i)
	}
	defer func() {
		cancel()
		wg.Wait()
	}()
	waitFor := func(what string, cond func(fanout.Metrics) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Minute)
		for m := hub.Metrics(); !cond(m); m = hub.Metrics() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s: %+v", what, m)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Every client attached and served its catch-up snapshot. The
	// simulation cannot advance while we wait, so the ring is frozen and
	// the barrier is exact.
	waitFor("attach", func(m fanout.Metrics) bool { return m.Subscribers == clients })
	base := hub.Metrics()
	waitFor("snapshot catch-up", func(m fanout.Metrics) bool { return m.SnapshotsServed >= uint64(clients) })

	// Measured window: advance one sampling interval at a time and wait
	// until every client has seen every frame, so MemStats brackets a
	// quiescent region.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recording.Store(true)
	start := hub.Metrics()
	for b := 0; b < bursts; b++ {
		hub.Sync(func() { c.RunFor(2 * time.Second) })
		waitFor("burst delivery", func(m fanout.Metrics) bool {
			return m.FramesDelivered-start.FramesDelivered >= uint64(clients)*(m.FramesAppended-start.FramesAppended)
		})
	}
	recording.Store(false)
	runtime.ReadMemStats(&m1)
	end := hub.Metrics()

	frames := end.FramesAppended - start.FramesAppended
	deliveries := end.FramesDelivered - start.FramesDelivered
	merged := stats.NewHistogram(0.01, 600_000, 64)
	for i := range shards {
		shards[i].mu.Lock()
		err := merged.MergeHistogram(shards[i].h)
		shards[i].mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	p50, p99 := merged.Quantile(0.50), merged.Quantile(0.99)
	var allocsPerEvt float64
	if deliveries > 0 {
		allocsPerEvt = float64(m1.Mallocs-m0.Mallocs) / float64(deliveries)
	}
	t.Logf("%d clients  %d replicas  %d upstream subs  %d frames  %d deliveries  p50 %.2f ms  p99 %.2f ms  %.2f allocs/event  %d evictions",
		clients, replicas, end.SampleSubs, frames, deliveries, p50, p99, allocsPerEvt, end.Evictions-base.Evictions)
	switch {
	case end.SampleSubs != 1:
		t.Fatalf("%d upstream subscriptions, want exactly 1", end.SampleSubs)
	case frames == 0 || deliveries < uint64(clients)*frames:
		t.Fatalf("%d deliveries of %d frames, want at least clients x frames", deliveries, frames)
	case end.Evictions != base.Evictions:
		t.Fatalf("%d evictions during healthy fan-out", end.Evictions-base.Evictions)
	case p99 > broadcastMaxP99Ms:
		t.Fatalf("p99 %.1f ms > %.0f ms", p99, broadcastMaxP99Ms)
	case allocsPerEvt > broadcastMaxAllocsPerEvt:
		t.Fatalf("%.2f allocs/event > %.1f", allocsPerEvt, broadcastMaxAllocsPerEvt)
	}
}
