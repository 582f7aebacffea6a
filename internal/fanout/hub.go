package fanout

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
)

// Config parameterizes a Hub. Broker is required; everything else has a
// usable zero value.
type Config struct {
	// Broker is the root attachment the hub (and every gateway replica
	// sharing it) multiplexes. Required.
	Broker *broker.Broker
	// RingFrames is each job ring's capacity: how many frames a slow
	// subscriber may lag before eviction. Default 1024.
	RingFrames int
	// Now overrides the wall clock frames are stamped with (tests).
	Now func() time.Time
}

// resolveTimeout bounds each job-record resolve RPC.
const resolveTimeout = 5 * time.Second

func (c Config) withDefaults() Config {
	if c.RingFrames <= 0 {
		c.RingFrames = 1024
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Replica is a gateway replica's cache-invalidation surface. The hub
// holds ONE set of job lifecycle subscriptions on the bus and broadcasts
// each event to every registered replica, so adding replicas costs the
// broker nothing.
type Replica struct {
	// InvalidateJob drops the replica's cached answers for one job.
	InvalidateJob func(id uint64)
	// InvalidateList drops the replica's cached job listing.
	InvalidateList func()
}

// Metrics is a snapshot of the hub's counters.
type Metrics struct {
	// Rings is the live per-job ring count; Subscribers the total
	// attached across them; SampleSubs the live upstream bus
	// subscriptions — exactly one per ring whose job is still running,
	// however many subscribers share it.
	Rings       int `json:"rings"`
	Subscribers int `json:"subscribers"`
	SampleSubs  int `json:"sample_subs"`

	RingsCreated    uint64 `json:"rings_created"`
	FramesAppended  uint64 `json:"frames_appended"`
	FramesDelivered uint64 `json:"frames_delivered"`
	SnapshotsServed uint64 `json:"snapshots_served"`
	Evictions       uint64 `json:"evictions"`
	// Reresolves counts reattach-driven membership refreshes — one per
	// affected ring per heal, not one per connection.
	Reresolves uint64 `json:"reresolves"`
}

// ringEntry is the rings-map slot: pending until the first attacher's
// resolve completes, then carrying the ring (or the resolve error).
type ringEntry struct {
	ready chan struct{}
	err   error
	r     *ring
	// pendingDone records a finish event that arrived while the resolve
	// was still in flight; the resolver applies it after installing.
	pendingDone atomic.Bool
}

// Hub owns the per-job broadcast rings and the root-broker attachment a
// replicated gateway tier shares. Create with New, hand to one or more
// powerapi gateways, stop with Close.
type Hub struct {
	cfg Config

	// upstream serializes all broker-bound work across every replica
	// sharing the hub — the moral equivalent of the single local-socket
	// connection a real client multiplexes.
	upstream sync.Mutex

	mu          sync.Mutex
	rings       map[uint64]*ringEntry
	replicas    map[uint64]Replica
	nextReplica uint64

	closed    chan struct{}
	closeOnce sync.Once
	unsubs    []func()

	sampleSubs      atomic.Int64
	ringsCreated    atomic.Uint64
	framesAppended  atomic.Uint64
	framesDelivered atomic.Uint64
	snapshotsServed atomic.Uint64
	evictions       atomic.Uint64
	reresolves      atomic.Uint64
}

// New builds a hub attached to cfg.Broker and installs its one set of
// job lifecycle subscriptions (finish/submit/start for ring termination
// and replica cache invalidation, topology reattach for per-ring
// membership refresh).
func New(cfg Config) (*Hub, error) {
	if cfg.Broker == nil {
		return nil, errors.New("fanout: Config.Broker is required")
	}
	h := &Hub{
		cfg:      cfg.withDefaults(),
		rings:    map[uint64]*ringEntry{},
		replicas: map[uint64]Replica{},
		closed:   make(chan struct{}),
	}
	h.unsubs = append(h.unsubs,
		cfg.Broker.Subscribe(job.EventFinish, func(ev *msg.Message) {
			var rec job.Record
			if err := ev.Unmarshal(&rec); err != nil {
				return
			}
			h.finishJob(rec.ID)
			h.eachReplica(func(rep Replica) {
				rep.InvalidateJob(rec.ID)
				rep.InvalidateList()
			})
		}),
		cfg.Broker.Subscribe(job.EventSubmit, func(ev *msg.Message) {
			h.eachReplica(func(rep Replica) { rep.InvalidateList() })
		}),
		cfg.Broker.Subscribe(job.EventStart, func(ev *msg.Message) {
			h.eachReplica(func(rep Replica) { rep.InvalidateList() })
		}),
		cfg.Broker.Subscribe(broker.TopicReattach, func(ev *msg.Message) {
			var re broker.ReattachEvent
			if err := ev.Unmarshal(&re); err != nil {
				return
			}
			h.mu.Lock()
			var affected []*ring
			for _, e := range h.rings {
				if e.r != nil && e.r.intersects(re.Ranks) {
					affected = append(affected, e.r)
				}
			}
			h.mu.Unlock()
			for _, r := range affected {
				h.refresh(r)
			}
		}),
	)
	return h, nil
}

// Broker returns the hub's root attachment.
func (h *Hub) Broker() *broker.Broker { return h.cfg.Broker }

// UpstreamMu exposes the shared upstream mutex so gateway replicas can
// serialize their own broker-bound work (REST fetches, drain sync) with
// the hub's resolves on the one attachment.
func (h *Hub) UpstreamMu() *sync.Mutex { return &h.upstream }

// Sync runs fn while holding the upstream attachment — drivers that
// advance simulated time concurrently with serving use it so scheduler
// dispatch and broker-bound work never interleave.
func (h *Hub) Sync(fn func()) {
	h.upstream.Lock()
	defer h.upstream.Unlock()
	fn()
}

// Register adds a gateway replica to the invalidation broadcast and
// returns its removal.
func (h *Hub) Register(rep Replica) func() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextReplica++
	id := h.nextReplica
	h.replicas[id] = rep
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		delete(h.replicas, id)
	}
}

func (h *Hub) eachReplica(fn func(Replica)) {
	h.mu.Lock()
	reps := make([]Replica, 0, len(h.replicas))
	for _, rep := range h.replicas {
		reps = append(reps, rep)
	}
	h.mu.Unlock()
	for _, rep := range reps {
		fn(rep)
	}
}

// Metrics returns a snapshot of the hub's counters.
func (h *Hub) Metrics() Metrics {
	m := Metrics{
		SampleSubs:      int(h.sampleSubs.Load()),
		RingsCreated:    h.ringsCreated.Load(),
		FramesAppended:  h.framesAppended.Load(),
		FramesDelivered: h.framesDelivered.Load(),
		SnapshotsServed: h.snapshotsServed.Load(),
		Evictions:       h.evictions.Load(),
		Reresolves:      h.reresolves.Load(),
	}
	h.mu.Lock()
	for _, e := range h.rings {
		if e.r != nil {
			m.Rings++
			m.Subscribers += e.r.subs
		}
	}
	h.mu.Unlock()
	return m
}

// FrameTime reports when sequence seq of jobID's ring was published, if
// the ring still holds it — the hook delivery-latency measurement hangs
// off.
func (h *Hub) FrameTime(jobID, seq uint64) (time.Time, bool) {
	h.mu.Lock()
	e := h.rings[jobID]
	h.mu.Unlock()
	if e == nil || e.r == nil {
		return time.Time{}, false
	}
	return e.r.frameTime(seq)
}

// AttachOptions steers a subscriber's catch-up position.
type AttachOptions struct {
	// ResumeSeq, when HasResume is set, is the last sequence the client
	// already holds (its Last-Event-ID): delivery resumes at
	// ResumeSeq+1 with no snapshot if the ring still covers it.
	ResumeSeq uint64
	HasResume bool
}

// Attach subscribes to jobID's broadcast ring, creating it (one job
// record resolve, one upstream bus subscription — no matter how many
// subscribers follow) on first use. An unknown job returns the broker's
// ENOENT error. Concurrent first attaches elect one resolver; everyone
// else waits for its ring.
func (h *Hub) Attach(ctx context.Context, jobID uint64, opts AttachOptions) (*Subscriber, error) {
	for {
		select {
		case <-h.closed:
			return nil, ErrClosed
		default:
		}
		r, err := h.ensure(ctx, jobID)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		e, ok := h.rings[jobID]
		if !ok || e.r != r {
			// The ring was GC'd between resolve and registration (its job
			// finished and the last subscriber left) — take another lap.
			h.mu.Unlock()
			continue
		}
		r.subs++
		h.mu.Unlock()
		sub := &Subscriber{hub: h, r: r, scratch: make([]Frame, 0, 32)}
		r.position(sub, opts)
		return sub, nil
	}
}

// ensure returns jobID's ring, resolving the job record and installing
// the ring (and its single bus subscription) when this is the first
// attach.
func (h *Hub) ensure(ctx context.Context, jobID uint64) (*ring, error) {
	h.mu.Lock()
	if e, ok := h.rings[jobID]; ok {
		h.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-h.closed:
			return nil, ErrClosed
		}
		if e.err != nil {
			return nil, e.err
		}
		return e.r, nil
	}
	e := &ringEntry{ready: make(chan struct{})}
	h.rings[jobID] = e
	h.mu.Unlock()

	rec, err := h.resolve(ctx, jobID)
	if err != nil {
		h.mu.Lock()
		delete(h.rings, jobID)
		h.mu.Unlock()
		e.err = err
		close(e.ready)
		return nil, err
	}
	r := newRing(jobID, h.cfg.RingFrames, h.cfg.Now)
	r.setFilter(rec.Ranks)
	if rec.State != job.StateInactive {
		// The one upstream subscription this job will ever hold. The
		// handler runs on the broker's event-delivery path: a rank probe,
		// then an append that re-uses the event's already-marshalled
		// payload bytes — no per-subscriber work of any kind.
		r.unsub = h.cfg.Broker.Subscribe(powermon.SampleEvent, func(ev *msg.Message) {
			if !r.hasRank(ev.Sender) {
				return
			}
			if r.append(KindSample, ev.Payload, ev.Sender) {
				h.framesAppended.Add(1)
			}
		})
		h.sampleSubs.Add(1)
	}
	h.mu.Lock()
	e.r = r
	h.mu.Unlock()
	h.ringsCreated.Add(1)
	close(e.ready)
	if rec.State == job.StateInactive || e.pendingDone.Load() {
		h.appendDone(r, false)
	}
	return r, nil
}

// resolve fetches the job record over the shared upstream attachment.
func (h *Hub) resolve(ctx context.Context, jobID uint64) (job.Record, error) {
	rctx, cancel := context.WithTimeout(ctx, resolveTimeout)
	defer cancel()
	h.upstream.Lock()
	resp, err := h.cfg.Broker.CallContext(rctx, msg.NodeAny, "job-manager.info", map[string]uint64{"id": jobID})
	h.upstream.Unlock()
	var rec job.Record
	if err == nil {
		err = resp.Unmarshal(&rec)
	}
	return rec, err
}

// finishJob terminates jobID's ring: append the done frame, drop the
// bus subscription, GC the ring if nobody is attached.
func (h *Hub) finishJob(jobID uint64) {
	h.mu.Lock()
	e := h.rings[jobID]
	h.mu.Unlock()
	if e == nil {
		return
	}
	select {
	case <-e.ready:
	default:
		// Resolve still in flight; the resolver applies the finish after
		// installing the ring.
		e.pendingDone.Store(true)
		return
	}
	if e.r != nil {
		h.appendDone(e.r, true)
	}
}

// appendDone publishes the terminal frame and releases the ring's bus
// subscription. gc additionally removes a subscriber-less ring (finish
// path; the create path must leave the ring for its first attacher).
func (h *Hub) appendDone(r *ring, gc bool) {
	if r.append(KindDone, []byte(fmt.Sprintf(`{"id":%d}`, r.jobID)), -1) {
		h.framesAppended.Add(1)
	}
	if u := r.takeUnsub(); u != nil {
		u()
		h.sampleSubs.Add(-1)
	}
	if gc {
		h.mu.Lock()
		if e, ok := h.rings[r.jobID]; ok && e.r == r && r.subs == 0 {
			delete(h.rings, r.jobID)
		}
		h.mu.Unlock()
	}
}

// detach drops one subscriber; the last one out of a finished ring
// removes it.
func (h *Hub) detach(r *ring) {
	var drop bool
	h.mu.Lock()
	r.subs--
	if e, ok := h.rings[r.jobID]; ok && e.r == r && r.subs == 0 && r.isDone() {
		delete(h.rings, r.jobID)
		drop = true
	}
	h.mu.Unlock()
	if drop {
		if u := r.takeUnsub(); u != nil {
			u()
			h.sampleSubs.Add(-1)
		}
	}
}

// refresh re-resolves a ring's job record after a topology reattach
// moved any of its ranks — once per ring, not once per connection, with
// at most one refresh in flight and one queued. A transient resolve
// failure keeps the previous filter (samples keep flowing on the stale
// set) and the next reattach event retries.
func (h *Hub) refresh(r *ring) {
	if !r.refreshing.CompareAndSwap(false, true) {
		r.refreshAgain.Store(true)
		return
	}
	go func() {
		defer r.refreshing.Store(false)
		for {
			select {
			case <-h.closed:
				return
			default:
			}
			rec, err := h.resolve(context.Background(), r.jobID)
			if err == nil {
				h.reresolves.Add(1)
				r.setFilter(rec.Ranks)
				if rec.State == job.StateInactive {
					h.appendDone(r, true)
				}
			}
			if !r.refreshAgain.Swap(false) {
				return
			}
		}
	}()
}

// Close shuts the hub down: wake every subscriber with ErrClosed,
// release all bus subscriptions, drop all rings. Idempotent.
func (h *Hub) Close() {
	h.closeOnce.Do(func() {
		close(h.closed)
		for _, u := range h.unsubs {
			u()
		}
		h.mu.Lock()
		entries := make([]*ringEntry, 0, len(h.rings))
		for _, e := range h.rings {
			entries = append(entries, e)
		}
		h.rings = map[uint64]*ringEntry{}
		h.mu.Unlock()
		for _, e := range entries {
			if e.r != nil {
				if u := e.r.takeUnsub(); u != nil {
					u()
					h.sampleSubs.Add(-1)
				}
			}
		}
	})
}
