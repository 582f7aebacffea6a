package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/fanout"
	"fluxpower/internal/powerapi"
)

// streamFanout is the delivery path: powermon publishes every sample,
// the broker routes the events over the TBON, the hub filters them into
// one render-once ring per job, and subscribers drain the rings. 7 long
// jobs of 4 nodes each are watched by 128 cursors per job, drained by the
// driver after every sampling round, plus two clients streaming one job
// through the gateway's full SSE handler. One operation is one frame
// delivered to one subscriber; the timed unit runs from the frame's ring
// append (Hub.FrameTime) to that subscriber's write.
type streamFanout struct {
	c    *cluster.Cluster
	mons []*powermon.Module
	hub  *fanout.Hub
	gw   *powerapi.Gateway

	jobs    []uint64
	cursors []*cursor
	sse     []*sseClient
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	br       *brokerBracket
	hub0     fanout.Metrics
	samples0 uint64
}

const (
	streamJobs       = 7 // one per catalog application: the frames every seed renders carry the same mix of payloads
	streamNodes      = 4 * streamJobs
	streamCursors    = 128 // per job
	streamRingFrames = 512
	streamOp         = 2 * time.Second // one sampling round: one frame per node
	// streamWarmRounds wraps every ring (512 frames at 4 per round) fifteen
	// times over; the count is sized to give about 2 s of set-up, since a
	// set-up of a few hundredths of a second cannot be compared run to run.
	streamWarmRounds = 2000
	// streamLatEvery thins the latency record to one delivery in 256. That
	// still leaves a quarter of a million samples a run, and keeps the
	// record (2 MB) out of the way of heap_live_mb, which is there to
	// measure the rings and the cluster.
	streamLatEvery = 256
)

// frameSink is the subscriber side of one stream: it sums the bytes it
// is handed and checks that the frames' id: lines count up by one. It is
// owned by one goroutine.
type frameSink struct {
	last   uint64 // sequence of the newest frame written
	frames int64
	bytes  int64
	gaps   int64
	sum    hash.Hash // SSE clients only: the whole stream, for the identity check
}

func (s *frameSink) write(p []byte) {
	s.bytes += int64(len(p))
	if s.sum != nil {
		s.sum.Write(p)
	}
	seq, ok := frameSeq(p)
	if !ok {
		s.gaps++ // every frame a healthy stream carries has an id
		return
	}
	if s.last != 0 && seq != s.last+1 {
		s.gaps++
	}
	s.frames++
	s.last = seq
}

// frameSeq parses the leading "id: <seq>\n" of an SSE frame.
func frameSeq(p []byte) (uint64, bool) {
	if !bytes.HasPrefix(p, []byte("id: ")) {
		return 0, false
	}
	var seq uint64
	for _, c := range p[4:] {
		if c == '\n' {
			return seq, true
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return 0, false
}

// cursor is one directly attached subscriber, drained by the driver.
type cursor struct {
	sub  *fanout.Subscriber
	sink frameSink
}

// sseClient is an http.ResponseWriter at the far end of the gateway's
// SSE handler. The handler goroutine owns sink and lat; it publishes the
// sequence it has finished writing through done, and the driver reads
// the rest only after it has seen the sequence it waits for there — the
// simulation is paused then, so no further frame can arrive.
type sseClient struct {
	hub    *fanout.Hub
	jobID  uint64
	sink   frameSink
	lat    []float64
	done   atomic.Uint64
	target atomic.Uint64
	// counted and gapsCounted are the driver's: what it has already
	// reported of the sink's frames and gaps.
	counted, gapsCounted int64
	// reached wakes the driver when done has caught up with target.
	reached chan struct{}
	header  http.Header
}

func (s *sseClient) Header() http.Header { return s.header }
func (s *sseClient) WriteHeader(int)     {}
func (s *sseClient) Flush()              {}

func (s *sseClient) Write(p []byte) (int, error) {
	s.sink.write(p)
	seq := s.sink.last
	if s.sink.frames%streamLatEvery == 0 {
		if at, ok := s.hub.FrameTime(s.jobID, seq); ok {
			s.lat = append(s.lat, float64(time.Since(at))/float64(time.Millisecond))
		}
	}
	s.done.Store(seq)
	if seq >= s.target.Load() {
		select {
		case s.reached <- struct{}{}:
		default:
		}
	}
	return len(p), nil
}

// waitFor blocks until the client has written frame seq.
func (s *sseClient) waitFor(seq uint64) {
	s.target.Store(seq)
	for s.done.Load() < seq {
		<-s.reached
	}
}

func (w *streamFanout) setup(e *env) error {
	c, err := newCluster(e, cluster.Config{Nodes: streamNodes})
	if err != nil {
		return err
	}
	w.c = c
	if w.mons, err = loadMonitors(c, powermon.Config{PublishSamples: true}); err != nil {
		return err
	}
	if w.hub, err = fanout.New(fanout.Config{Broker: c.Inst.Root(), RingFrames: streamRingFrames}); err != nil {
		return err
	}
	if w.gw, err = powerapi.New(powerapi.Config{Hub: w.hub}); err != nil {
		return err
	}
	src, err := newJobSource(rand.New(rand.NewSource(e.rng.Int63())),
		queueShape{MinNodes: 4, MaxNodes: 4, MinSec: 60, MaxSec: 600}, e.o.Queue)
	if err != nil {
		return err
	}
	if w.jobs, err = fillWithJobs(c, src, streamJobs); err != nil {
		return err
	}
	w.hub.Sync(func() { c.RunFor(streamOp) })

	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	for _, id := range w.jobs {
		for i := 0; i < streamCursors; i++ {
			sp := e.tr.begin("fanout.Attach")
			sub, err := w.hub.Attach(ctx, id, fanout.AttachOptions{})
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("attach job %d: %w", id, err)
			}
			w.cursors = append(w.cursors, &cursor{sub: sub})
		}
	}
	// The two handler clients join the same job at the same ring position
	// (the simulation is paused), so their streams must be byte-identical.
	for i := 0; i < 2; i++ {
		cl := &sseClient{hub: w.hub, jobID: w.jobs[0], reached: make(chan struct{}, 1), header: http.Header{}}
		cl.sink.sum = sha256.New()
		w.sse = append(w.sse, cl)
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%d/stream", w.jobs[0]), nil).WithContext(ctx)
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.gw.ServeHTTP(cl, req)
		}()
	}
	want := len(w.cursors) + len(w.sse)
	for deadline := time.Now().Add(30 * time.Second); w.hub.Metrics().Subscribers != want; {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d subscribers attached", w.hub.Metrics().Subscribers, want)
		}
		time.Sleep(time.Millisecond)
	}
	// Every subscriber takes its snapshot frame before the first round.
	w.drain(e)
	warm := streamWarmRounds
	if e.o.Quick {
		warm = 80
	}
	for i := 0; i < warm; i++ {
		w.round(e)
	}
	e.lat = e.lat[:0]
	return nil
}

// drained is the context handed to Subscriber.Next: already cancelled, so
// Next returns the frames that are ready and never parks the driver.
var drained = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

func (w *streamFanout) begin(e *env) {
	w.br = bracketBrokers(w.c)
	w.hub0 = w.hub.Metrics()
	w.samples0 = totalSamples(w.mons)
}

func (w *streamFanout) round(e *env) (int64, int64) {
	sp := e.tr.beginReq("round")
	defer e.tr.end(sp)
	w.hub.Sync(func() { runFor(e, w.c, streamOp) })
	return w.drain(e)
}

// drain hands every subscriber the frames its ring holds for it and
// returns how many frames were delivered and how many broke contiguity.
func (w *streamFanout) drain(e *env) (delivered, gaps int64) {
	n := 0
	for _, cu := range w.cursors {
		gaps -= cu.sink.gaps
		for {
			sp := e.tr.begin("fanout.Next")
			frames, err := cu.sub.Next(drained, nil)
			e.tr.end(sp)
			if err != nil {
				break
			}
			for _, f := range frames {
				cu.sink.write(f.Data)
				if n++; n%streamLatEvery == 0 {
					e.lat = append(e.lat, float64(time.Since(f.At))/float64(time.Millisecond))
				}
			}
			delivered += int64(len(frames))
		}
		gaps += cu.sink.gaps
	}
	// The handler clients run on their own goroutines; they are done when
	// they have written everything the first job's ring holds.
	head := w.cursors[0].sink.last
	for _, cl := range w.sse {
		cl.waitFor(head)
		delivered += cl.sink.frames - cl.counted
		gaps += cl.sink.gaps - cl.gapsCounted
		cl.counted, cl.gapsCounted = cl.sink.frames, cl.sink.gaps
		e.lat = append(e.lat, cl.lat...)
		cl.lat = cl.lat[:0]
	}
	return delivered, gaps
}

func (w *streamFanout) end(e *env, ops int64, m metricSet) {
	w.br.end(w.c, ops, m)
	hm := w.hub.Metrics()
	frames := float64(hm.FramesAppended - w.hub0.FramesAppended)
	samples := float64(totalSamples(w.mons) - w.samples0)
	m.set("powermon.samples_per_op", samples/float64(ops))
	m.set("fanout.frames_per_event", frames/samples)
	m.set("fanout.deliveries_per_frame", float64(hm.FramesDelivered-w.hub0.FramesDelivered)/frames)
	sort.Float64s(e.lat)
	m.set("fanout.deliver_ms_p99", quantile(e.lat, 0.99))
	m.set("fanout.evictions", float64(hm.Evictions))
	m.set("fanout.upstream_subs", float64(hm.SampleSubs))
}

func (w *streamFanout) verify(e *env) error {
	var gaps int64
	for _, cu := range w.cursors {
		gaps += cu.sink.gaps
	}
	for _, cl := range w.sse {
		gaps += cl.sink.gaps
	}
	if gaps != 0 {
		return fmt.Errorf("%d breaks in id: contiguity", gaps)
	}
	hm := w.hub.Metrics()
	if hm.Evictions != 0 {
		return fmt.Errorf("%d subscribers evicted", hm.Evictions)
	}
	if hm.SampleSubs != streamJobs {
		return fmt.Errorf("%d upstream sample subscriptions, want %d", hm.SampleSubs, streamJobs)
	}
	a, b := w.sse[0], w.sse[1]
	if a.sink.bytes != b.sink.bytes || !bytes.Equal(a.sink.sum.Sum(nil), b.sink.sum.Sum(nil)) {
		return fmt.Errorf("the two SSE streams differ: %d and %d bytes", a.sink.bytes, b.sink.bytes)
	}
	return nil
}

func (w *streamFanout) close() {
	if w.cancel != nil {
		w.cancel()
	}
	w.wg.Wait()
	for _, cu := range w.cursors {
		cu.sub.Close()
	}
	if w.gw != nil {
		w.gw.Close()
	}
	if w.hub != nil {
		w.hub.Close()
	}
	if w.c != nil {
		w.c.Close()
	}
}
