// Package chaos is a seeded, deterministic fault-injection layer for the
// TBON power stack, plus the property checker that makes chaos runs
// assertable (check.go).
//
// The injector wraps transport links through the existing
// cluster.Config.WrapLink / broker.InstanceOptions.WrapLink hooks; it
// never touches broker internals. A Plan — a seed plus a list of rules —
// describes per-link faults (drop, fixed/jittered delay, duplication,
// reordering, payload corruption, hard partition) and per-node faults
// (crash, crash-then-restart, hung module: accepts but never responds).
// Every random decision comes from a rand.Rand derived from the plan
// seed and the directed link's (from, to) pair, so a failing scenario
// replays exactly from its seed, in simulation and over live TCP alike.
//
// Lifecycle: New(plan) → pass inj.WrapLink at instance construction →
// Bind(timers) once the instance's time source exists → Arm() to start
// injecting → Disarm() to let the system quiesce before invariants are
// checked. Disarmed links pass every message through untouched, which is
// also what protects live-TCP handshakes from the plan's own faults.
package chaos

import (
	"encoding/json"
	"math/rand"
	"sync"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/simtime"
)

// AnyRank matches either endpoint of a rule.
const AnyRank int32 = -1

// NodeFaultKind discriminates per-node faults.
type NodeFaultKind string

// Node fault kinds.
const (
	// FaultCrash makes the rank unreachable: inbound sends fail with
	// transport.ErrClosed (the sender sees a dead peer), outbound
	// messages vanish. A bounded window models crash-then-restart.
	FaultCrash NodeFaultKind = "crash"
	// FaultHang models a wedged module: the rank still accepts inbound
	// messages (handlers run, state mutates) but nothing it sends ever
	// leaves the node — requests are accepted and never answered.
	FaultHang NodeFaultKind = "hang"
)

// Window is a fault's active interval in instance seconds (simulated
// seconds under the scheduler, seconds since Wall start in live mode).
// EndSec <= 0 means the fault never clears.
type Window struct {
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec,omitempty"`
}

func (w Window) active(sec float64) bool {
	return sec >= w.StartSec && (w.EndSec <= 0 || sec < w.EndSec)
}

// LinkRule injects probabilistic faults on matching directed links.
// From/To of AnyRank match any rank. All probabilities are in [0,1] and
// evaluated independently per message while the rule's window is active.
type LinkRule struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
	Window
	// DropProb silently discards the message.
	DropProb float64 `json:"drop_prob,omitempty"`
	// DelayProb holds the message for DelayMs plus a uniform jitter in
	// [0, DelayJitterMs) before delivery. In simulation the delivery is a
	// scheduler event; a delay past the RPC deadline is indistinguishable
	// from a drop to the caller, as on a real congested link.
	DelayProb     float64 `json:"delay_prob,omitempty"`
	DelayMs       float64 `json:"delay_ms,omitempty"`
	DelayJitterMs float64 `json:"delay_jitter_ms,omitempty"`
	// DupProb delivers the message twice.
	DupProb float64 `json:"dup_prob,omitempty"`
	// CorruptProb replaces the payload with well-framed garbage: the
	// frame still parses (a TCP receiver must not kill the connection)
	// but the payload fails to unmarshal at the consumer.
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	// ReorderProb holds the message back until the next message on the
	// same directed link overtakes it (or a flush timer expires).
	ReorderProb float64 `json:"reorder_prob,omitempty"`
}

func (r LinkRule) matches(from, to int32) bool {
	return (r.From == AnyRank || r.From == from) && (r.To == AnyRank || r.To == to)
}

// NodeRule injects a per-node fault for a window.
type NodeRule struct {
	Rank int32         `json:"rank"`
	Kind NodeFaultKind `json:"kind"`
	Window
}

// PartitionRule cuts the network between Ranks and everyone else for a
// window: any message crossing the cut, in either direction, is dropped.
type PartitionRule struct {
	Ranks []int32 `json:"ranks"`
	Window
}

// Plan is a complete, reproducible chaos scenario.
type Plan struct {
	Seed       int64           `json:"seed"`
	Links      []LinkRule      `json:"links,omitempty"`
	Nodes      []NodeRule      `json:"nodes,omitempty"`
	Partitions []PartitionRule `json:"partitions,omitempty"`
}

// String renders the plan as JSON — what a failing soak test prints so
// the scenario can be replayed verbatim.
func (p Plan) String() string {
	b, err := json.Marshal(p)
	if err != nil {
		return "chaos.Plan{unmarshalable}"
	}
	return string(b)
}

// Stats counts what the injector actually did — useful both in test
// failure output and to confirm a scenario exercised anything at all.
type Stats struct {
	Sent       uint64 `json:"sent"`
	Dropped    uint64 `json:"dropped"`
	Delayed    uint64 `json:"delayed"`
	Duplicated uint64 `json:"duplicated"`
	Corrupted  uint64 `json:"corrupted"`
	Reordered  uint64 `json:"reordered"`
	// CrashedIn counts sends refused because the destination was crashed;
	// CrashedOut counts messages swallowed because the sender was crashed
	// or hung; Partitioned counts messages dropped at a partition cut.
	CrashedIn   uint64 `json:"crashed_in"`
	CrashedOut  uint64 `json:"crashed_out"`
	Partitioned uint64 `json:"partitioned"`
}

// Injector wraps an instance's links and applies one Plan.
type Injector struct {
	plan Plan

	mu        sync.Mutex
	timers    simtime.TimerProvider
	armed     bool
	disarmSec float64
	stats     Stats
	partIn    []map[int32]bool
}

// New builds an injector for the plan. Wire it with WrapLink at instance
// construction, Bind it to the instance's timer provider, then Arm it.
func New(plan Plan) *Injector {
	in := &Injector{plan: plan}
	for _, p := range plan.Partitions {
		set := make(map[int32]bool, len(p.Ranks))
		for _, r := range p.Ranks {
			set[r] = true
		}
		in.partIn = append(in.partIn, set)
	}
	return in
}

// Bind attaches the instance's time source. Must be called before Arm;
// it is separate from New because the scheduler is created by the same
// cluster constructor that needs WrapLink.
func (in *Injector) Bind(timers simtime.TimerProvider) {
	in.mu.Lock()
	in.timers = timers
	in.mu.Unlock()
}

// Arm starts injecting faults. Panics if Bind was never called.
func (in *Injector) Arm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.timers == nil {
		panic("chaos: Arm before Bind")
	}
	in.armed = true
}

// Disarm stops injecting; links pass messages through untouched. Held
// (delayed/reordered) messages still deliver when their timers fire.
func (in *Injector) Disarm() {
	in.mu.Lock()
	in.armed = false
	if in.timers != nil {
		in.disarmSec = in.timers.Now().Seconds()
	}
	in.mu.Unlock()
}

// Armed reports whether faults are currently injected.
func (in *Injector) Armed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.armed
}

// DisarmedAt returns the instant of the last Disarm, in instance seconds
// (0 if never disarmed). Once disarmed, every plan window is effectively
// over — the checker clamps open-ended crash windows here.
func (in *Injector) DisarmedAt() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.disarmSec
}

// Stats returns a snapshot of injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

func (in *Injector) count(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

// now returns the instance time in seconds; 0 before Bind.
func (in *Injector) now() float64 {
	in.mu.Lock()
	t := in.timers
	in.mu.Unlock()
	if t == nil {
		return 0
	}
	return t.Now().Seconds()
}

func (in *Injector) after(d time.Duration, fn func()) {
	in.mu.Lock()
	t := in.timers
	in.mu.Unlock()
	if t == nil {
		fn()
		return
	}
	t.AfterFunc(d, func(simtime.Time) { fn() })
}

// CrashedAt reports whether rank is inside a crash window at sec.
func (in *Injector) CrashedAt(rank int32, sec float64) bool {
	for _, n := range in.plan.Nodes {
		if n.Rank == rank && n.Kind == FaultCrash && n.active(sec) {
			return true
		}
	}
	return false
}

// HungAt reports whether rank is inside a hang window at sec.
func (in *Injector) HungAt(rank int32, sec float64) bool {
	for _, n := range in.plan.Nodes {
		if n.Rank == rank && n.Kind == FaultHang && n.active(sec) {
			return true
		}
	}
	return false
}

// partitioned reports whether the directed edge crosses an active cut.
func (in *Injector) partitioned(from, to int32, sec float64) bool {
	for i, p := range in.plan.Partitions {
		if !p.active(sec) {
			continue
		}
		if in.partIn[i][from] != in.partIn[i][to] {
			return true
		}
	}
	return false
}

// CrashWindows returns rank's crash windows — the checker's ground truth
// for "was this rank dead at time t".
func (in *Injector) CrashWindows(rank int32) []Window {
	var out []Window
	for _, n := range in.plan.Nodes {
		if n.Rank == rank && n.Kind == FaultCrash {
			out = append(out, n.Window)
		}
	}
	return out
}

// WrapLink is the hook to pass as cluster.Config.WrapLink /
// InstanceOptions.WrapLink: it interposes a fault-injecting link on the
// directed edge from → to. Disarmed, the wrapper is transparent.
func (in *Injector) WrapLink(from, to int32, l transport.Link) transport.Link {
	var rules []LinkRule
	for _, r := range in.plan.Links {
		if r.matches(from, to) {
			rules = append(rules, r)
		}
	}
	return &chaosLink{
		in:    in,
		inner: l,
		from:  from,
		to:    to,
		rules: rules,
		// Each directed link draws from its own deterministic stream, so
		// outcomes do not depend on the order links happen to be wired or
		// exercised relative to each other.
		rng: rand.New(rand.NewSource(linkSeed(in.plan.Seed, from, to))),
	}
}

// linkSeed mixes the plan seed with the directed edge using a
// splitmix64-style finalizer, so adjacent (from, to) pairs get unrelated
// streams.
func linkSeed(seed int64, from, to int32) int64 {
	z := uint64(seed) ^ (uint64(uint32(from))<<32 | uint64(uint32(to)))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// reorderFlushDelay bounds how long a reordered message is held when no
// later message overtakes it.
const reorderFlushDelay = 50 * time.Millisecond

// chaosLink applies one directed edge's share of the plan. Its mutex
// guards the rng and the reorder slot and is never held across
// inner.Send, so synchronous in-memory delivery (which can re-enter the
// same link, e.g. an event echoing back down the tree) cannot deadlock.
type chaosLink struct {
	in    *Injector
	inner transport.Link
	from  int32
	to    int32
	rules []LinkRule

	mu   sync.Mutex
	rng  *rand.Rand
	held *msg.Message
}

// fate is a message's decided treatment, computed under the link mutex
// and executed outside it.
type fate struct {
	drop    bool
	crashed bool // destination dead: report ErrClosed
	delay   time.Duration
	dup     bool
	corrupt bool
	reorder bool
	release *msg.Message // previously held message to send after this one
}

func (cl *chaosLink) Send(m *msg.Message) error {
	if !cl.in.Armed() {
		return cl.inner.Send(m)
	}
	cl.in.count(func(s *Stats) { s.Sent++ })
	now := cl.in.now()

	// Node-state faults are deterministic functions of time, no draws.
	if cl.in.CrashedAt(cl.from, now) || cl.in.HungAt(cl.from, now) {
		cl.in.count(func(s *Stats) { s.CrashedOut++ })
		return nil // a dead or wedged sender emits nothing
	}
	if cl.in.CrashedAt(cl.to, now) {
		cl.in.count(func(s *Stats) { s.CrashedIn++ })
		return transport.ErrClosed
	}
	if cl.in.partitioned(cl.from, cl.to, now) {
		cl.in.count(func(s *Stats) { s.Partitioned++ })
		return nil
	}

	f := cl.decide(m, now)
	switch {
	case f.drop:
		cl.in.count(func(s *Stats) { s.Dropped++ })
		return nil
	case f.delay > 0:
		cl.in.count(func(s *Stats) { s.Delayed++ })
		cl.in.after(f.delay, func() { cl.deliverLate(m) })
		return nil
	case f.reorder:
		cl.in.count(func(s *Stats) { s.Reordered++ })
		cl.in.after(reorderFlushDelay, func() { cl.flushHeld(m) })
		return nil
	}
	out := m
	if f.corrupt {
		cl.in.count(func(s *Stats) { s.Corrupted++ })
		out = corruptPayload(m)
	}
	err := cl.inner.Send(out)
	if f.dup && err == nil {
		cl.in.count(func(s *Stats) { s.Duplicated++ })
		err = cl.inner.Send(out)
	}
	if f.release != nil {
		// The held message departs after the one that overtook it — the
		// reorder observable.
		_ = cl.inner.Send(f.release)
	}
	return err
}

// decide draws this message's fate from the link's deterministic stream.
// Every probability field of every active rule is drawn exactly once, in
// plan order, so the stream's consumption is independent of outcomes.
func (cl *chaosLink) decide(m *msg.Message, now float64) fate {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var f fate
	for _, r := range cl.rules {
		if !r.active(now) {
			continue
		}
		if cl.rng.Float64() < r.DropProb {
			f.drop = true
		}
		delayDraw := cl.rng.Float64()
		jitter := cl.rng.Float64()
		if f.delay == 0 && delayDraw < r.DelayProb {
			f.delay = time.Duration((r.DelayMs + jitter*r.DelayJitterMs) * float64(time.Millisecond))
			if f.delay <= 0 {
				f.delay = time.Millisecond
			}
		}
		if cl.rng.Float64() < r.DupProb {
			f.dup = true
		}
		if cl.rng.Float64() < r.CorruptProb {
			f.corrupt = true
		}
		if cl.rng.Float64() < r.ReorderProb {
			f.reorder = true
		}
	}
	if f.drop {
		return fate{drop: true}
	}
	if f.delay > 0 {
		return fate{delay: f.delay}
	}
	if f.reorder {
		if cl.held == nil {
			cl.held = m
			return fate{reorder: true}
		}
		// Slot occupied: this message just becomes the overtaker.
		f.reorder = false
	}
	if cl.held != nil {
		f.release = cl.held
		cl.held = nil
	}
	return f
}

// deliverLate delivers a delayed message, re-checking node state at
// delivery time: a delayed message to a rank that crashed in the
// meantime dies with it.
func (cl *chaosLink) deliverLate(m *msg.Message) {
	now := cl.in.now()
	if cl.in.Armed() && (cl.in.CrashedAt(cl.to, now) || cl.in.CrashedAt(cl.from, now)) {
		cl.in.count(func(s *Stats) { s.CrashedOut++ })
		return
	}
	_ = cl.inner.Send(m)
}

// flushHeld releases a reordered message that nothing overtook.
func (cl *chaosLink) flushHeld(m *msg.Message) {
	cl.mu.Lock()
	stillHeld := cl.held == m
	if stillHeld {
		cl.held = nil
	}
	cl.mu.Unlock()
	if stillHeld {
		cl.deliverLate(m)
	}
}

func (cl *chaosLink) Close() error {
	cl.mu.Lock()
	cl.held = nil
	cl.mu.Unlock()
	return cl.inner.Close()
}

// corruptPayload returns a copy of m whose payload is valid JSON (the
// frame must survive transport encoding) that no consumer schema
// accepts. The original is untouched: payload bytes are shared and
// treated as immutable everywhere.
func corruptPayload(m *msg.Message) *msg.Message {
	cp := m.Copy()
	cp.Payload = json.RawMessage(`"chaos:corrupted-payload"`)
	return cp
}

// GeneratePlan derives a randomized but fully reproducible scenario for
// a soak run: a lossy fabric plus some mixture of delay, duplication,
// corruption, reordering, node crashes/hangs and a partition, all inside
// [0.1, 0.8]·durationSec so the run ends with a clean quiesce interval.
// Rank 0 is never crashed or hung: the root is where clients attach, and
// a dead root is an uninteresting total outage.
func GeneratePlan(seed int64, size int32, durationSec float64) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	window := func(lo, hi float64) Window {
		s := durationSec * (lo + rng.Float64()*(hi-lo-0.1))
		e := s + durationSec*(0.1+rng.Float64()*(hi-lo-0.1))
		if e > durationSec*hi {
			e = durationSec * hi
		}
		return Window{StartSec: s, EndSec: e}
	}
	nonRoot := func() int32 {
		if size <= 1 {
			return 0
		}
		return 1 + rng.Int31n(size-1)
	}

	// A lossy fabric, always: either instance-wide or on one rank's links.
	lossy := LinkRule{From: AnyRank, To: AnyRank, Window: window(0.1, 0.8),
		DropProb: 0.02 + rng.Float64()*0.2}
	if rng.Float64() < 0.3 {
		lossy.To = nonRoot()
	}
	p.Links = append(p.Links, lossy)

	if rng.Float64() < 0.5 {
		p.Links = append(p.Links, LinkRule{From: AnyRank, To: AnyRank, Window: window(0.1, 0.8),
			DelayProb: 0.05 + rng.Float64()*0.3,
			DelayMs:   5 + rng.Float64()*40, DelayJitterMs: rng.Float64() * 30})
	}
	if rng.Float64() < 0.4 {
		p.Links = append(p.Links, LinkRule{From: AnyRank, To: AnyRank, Window: window(0.1, 0.8),
			DupProb: 0.05 + rng.Float64()*0.2})
	}
	if rng.Float64() < 0.4 {
		p.Links = append(p.Links, LinkRule{From: AnyRank, To: AnyRank, Window: window(0.1, 0.8),
			CorruptProb: 0.02 + rng.Float64()*0.15})
	}
	if rng.Float64() < 0.4 {
		p.Links = append(p.Links, LinkRule{From: AnyRank, To: AnyRank, Window: window(0.1, 0.8),
			ReorderProb: 0.05 + rng.Float64()*0.25})
	}
	if size > 1 && rng.Float64() < 0.6 {
		w := window(0.2, 0.7)
		if rng.Float64() < 0.3 {
			w.EndSec = 0 // permanent crash, no restart
		}
		p.Nodes = append(p.Nodes, NodeRule{Rank: nonRoot(), Kind: FaultCrash, Window: w})
	}
	if size > 1 && rng.Float64() < 0.35 {
		p.Nodes = append(p.Nodes, NodeRule{Rank: nonRoot(), Kind: FaultHang, Window: window(0.2, 0.7)})
	}
	if size > 3 && rng.Float64() < 0.3 {
		// Cut a contiguous non-root block of ranks off the fabric.
		lo := 1 + rng.Int31n(size-2)
		hi := lo + rng.Int31n(size-lo)
		var ranks []int32
		for r := lo; r <= hi; r++ {
			ranks = append(ranks, r)
		}
		p.Partitions = append(p.Partitions, PartitionRule{Ranks: ranks, Window: window(0.25, 0.65)})
	}
	return p
}
