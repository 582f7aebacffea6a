// Package broker implements the Flux message broker daemon and the
// tree-based overlay network (TBON) the paper's power modules run on.
//
// A Flux instance is a set of flux-broker processes, one per node, forming
// a k-ary tree rooted at rank 0 (§II-B). Messages are routed over the tree:
// requests travel toward their destination rank (or upstream until a broker
// implements the requested service), responses retrace the path to the
// requester, and events funnel to rank 0 and broadcast back down.
//
// Services are dynamically loaded broker plugins — modules (RFC 5). Both
// flux-power-monitor and flux-power-manager are implemented as modules:
// they register message handlers, subscribe to events, and arm periodic
// timers, exactly as the paper describes (§III).
//
// The broker is transport-agnostic. In the tick-driven simulation, links
// are in-memory and delivery is synchronous; in live mode the same broker
// runs over TCP links. State is guarded by a mutex that is never held
// across a handler call or a link send, so synchronous in-memory delivery
// cannot deadlock.
package broker

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/simtime"
)

// Handler processes a request delivered to a registered service.
type Handler func(req *Request)

// EventHandler processes a broadcast event.
type EventHandler func(ev *msg.Message)

// ResponseHandler receives the response to an RPC.
type ResponseHandler func(resp *msg.Message)

// Errors.
var (
	ErrNoRoute     = errors.New("broker: no route to destination")
	ErrNoService   = errors.New("broker: no such service")
	ErrDupService  = errors.New("broker: service already registered")
	ErrDupModule   = errors.New("broker: module already loaded")
	ErrNoSyncReply = errors.New("broker: no synchronous reply (asynchronous responder?)")
	// ErrTimeout resolves a Future whose RPC deadline passed with no
	// response (carried as ETIMEDOUT on the synthesized error response).
	ErrTimeout = errors.New("broker: rpc timed out")
	// ErrCanceled resolves a Future abandoned with Cancel.
	ErrCanceled = errors.New("broker: rpc canceled")
	// ErrNotResolved is returned by Future.Result before completion.
	ErrNotResolved = errors.New("broker: rpc not yet resolved")
)

// DefaultCallTimeout bounds Call's blocking wait over live transports
// when Options.CallTimeout is unset. Irrelevant in simulation, where
// responses resolve synchronously.
const DefaultCallTimeout = 5 * time.Second

// Broker is one flux-broker daemon.
type Broker struct {
	rank int32
	size int32
	k    int // TBON fan-out

	clock  simtime.Clock
	timers simtime.TimerProvider // timer source for modules; nil if unavailable

	// sync is true when this broker runs under the deterministic
	// scheduler: delivery is synchronous on one thread, so handlers
	// dispatch inline and Future.Wait must never block. Live brokers
	// (wall-clock timers) set it false and dispatch handlers on their
	// own goroutines.
	sync        bool
	wheel       *deadlineWheel // RPC deadline timers; nil without a timer provider
	callTimeout time.Duration

	mu        sync.Mutex
	parent    transport.Link
	children  map[int32]transport.Link
	services  map[string]Handler
	pending   map[uint32]*Future
	nextTag   uint32
	subs      []subscription
	nextSubID uint64
	eventSeq  uint64
	modules   map[string]Module
	modUndo   map[string][]func()
	local     any

	// Elastic-topology state (heal.go). parentRank tracks who the
	// current upstream actually is (the formula parent until a reattach
	// moves it). childSets is nil while the topology is pristine — every
	// routing decision then uses the closed-form k-ary walk — and is
	// materialized from the formula on the first runtime mutation; each
	// set holds the full membership of that child's subtree, child
	// included. detached keeps the links of pruned children unclosed so a
	// wrongly-pruned child's next heartbeat can still be acked and the
	// child steered back through the reattach handshake.
	parentRank int32
	childSets  map[int32]map[int32]bool
	detached   map[int32]transport.Link

	// childList holds the links of children sorted by rank, the order
	// events flood in. The three sites that change children (AddChild,
	// pruneChild, handleReattach) replace it with a fresh slice and never
	// write it in place, so routeEvent can range over a copy of the
	// header after dropping mu.
	childList []childLink

	// Event dedupe window: a reattached child can transiently receive
	// the same sequenced event via its old and its new parent. Root
	// assigns seqs so it never dedupes; everyone else keeps the highest
	// seq seen and one bit for each of the evDedupeWindow seqs ending at
	// it (72 bytes).
	evWindow seqWindow

	heal *healState // nil unless Options.Heal was set

	stats Stats
}

type childLink struct {
	rank int32
	l    transport.Link
}

// evDedupeWindow is how many seqs behind the high-water mark the event
// dedupe window reaches; a multiple of 64.
const evDedupeWindow = 512

// seqWindow remembers which of the evDedupeWindow seqs ending at high
// have arrived: seq s owns bit s%evDedupeWindow.
type seqWindow struct {
	high uint64
	bits [evDedupeWindow / 64]uint64
}

// admit records seq and reports whether it is fresh. A seq
// evDedupeWindow or more behind the high-water mark is fresh: its bit
// already belongs to a newer seq, and bounded memory is the contract,
// not perfect dedupe.
func (w *seqWindow) admit(seq uint64) bool {
	if seq < w.high && w.high-seq >= evDedupeWindow {
		return true
	}
	if seq > w.high {
		if seq-w.high >= evDedupeWindow {
			w.bits = [evDedupeWindow / 64]uint64{}
		} else {
			for s := w.high + 1; s <= seq; s++ {
				w.bits[s%evDedupeWindow/64] &^= 1 << (s % 64)
			}
		}
		w.high = seq
	}
	word, bit := &w.bits[seq%evDedupeWindow/64], uint64(1)<<(seq%64)
	fresh := *word&bit == 0
	*word |= bit
	return fresh
}

// maxHops bounds broker-to-broker forwards for a single message while
// the tree is re-forming after a crash; only enforced when healing is
// enabled (a pristine tree cannot loop).
const maxHops = 64

type subscription struct {
	id      uint64
	pattern string
	fn      EventHandler
}

// Stats counts broker activity; exposed via the builtin broker.stats
// service and used by overhead benchmarks.
type Stats struct {
	RequestsHandled uint64 `json:"requests_handled"`
	RequestsRouted  uint64 `json:"requests_routed"`
	ResponsesRouted uint64 `json:"responses_routed"`
	EventsPublished uint64 `json:"events_published"`
	EventsDelivered uint64 `json:"events_delivered"`
	RPCsIssued      uint64 `json:"rpcs_issued"`
	RPCTimeouts     uint64 `json:"rpc_timeouts"`
	RoutingErrors   uint64 `json:"routing_errors"`
	// TagsReclaimed counts matchtag pending-table entries actually removed
	// (response delivery, deadline expiry, cancel, sim no-reply). At
	// quiescence TagsReclaimed == RPCsIssued and PendingRPCs() == 0; the
	// chaos invariant checker asserts exactly that.
	TagsReclaimed uint64 `json:"tags_reclaimed"`
}

// Health is the liveness/leak snapshot served by the builtin broker.health
// service: the counters an operator (or the chaos invariant checker) needs
// to tell "quiet" from "leaking".
type Health struct {
	Rank          int32 `json:"rank"`
	PendingRPCs   int   `json:"pending_rpcs"`
	Subscriptions int   `json:"subscriptions"`
	Modules       int   `json:"modules"`
	Stats         Stats `json:"stats"`
}

// Health returns a snapshot of the broker's health counters.
func (b *Broker) Health() Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Health{
		Rank:          b.rank,
		PendingRPCs:   len(b.pending),
		Subscriptions: len(b.subs),
		Modules:       len(b.modules),
		Stats:         b.stats,
	}
}

// Options configures a broker.
type Options struct {
	Rank int32
	Size int32
	// Fanout is the TBON arity k (Flux defaults to 2). Must be >= 1.
	Fanout int
	// Clock provides time to modules. Required.
	Clock simtime.Clock
	// Timers provides module timers: the deterministic Scheduler in
	// simulation mode, a simtime.Wall in live mode. Optional (modules
	// needing timers fail to load without one).
	Timers simtime.TimerProvider
	// Local carries per-node resources (the simulated hw.Node) that
	// modules access through Context.Local.
	Local any
	// CallTimeout bounds Call's blocking wait over live transports
	// (default DefaultCallTimeout). Ignored in simulation.
	CallTimeout time.Duration
	// Heal enables the self-healing TBON extension (heartbeats, orphan
	// reattach, runtime topology repair — see heal.go). Nil preserves the
	// fixed-topology behavior exactly: no timers, no control traffic.
	Heal *HealConfig
}

// realTimeProvider is implemented by time sources whose callbacks run
// concurrently in real time (simtime.Wall). Its absence — or a false
// return — marks the deterministic single-threaded scheduler.
type realTimeProvider interface{ RealTime() bool }

func isRealTime(v any) bool {
	rt, ok := v.(realTimeProvider)
	return ok && rt.RealTime()
}

// New creates an unwired broker. Links are attached with SetParent /
// AddChild (or the tree helpers in this package).
func New(opts Options) (*Broker, error) {
	if opts.Size <= 0 {
		return nil, fmt.Errorf("broker: instance size %d must be positive", opts.Size)
	}
	if opts.Rank < 0 || opts.Rank >= opts.Size {
		return nil, fmt.Errorf("broker: rank %d outside [0,%d)", opts.Rank, opts.Size)
	}
	if opts.Fanout < 1 {
		return nil, fmt.Errorf("broker: fanout %d must be >= 1", opts.Fanout)
	}
	if opts.Clock == nil {
		return nil, errors.New("broker: Clock is required")
	}
	b := &Broker{
		rank:        opts.Rank,
		size:        opts.Size,
		k:           opts.Fanout,
		clock:       opts.Clock,
		timers:      opts.Timers,
		sync:        !isRealTime(opts.Timers) && !isRealTime(opts.Clock),
		callTimeout: opts.CallTimeout,
		children:    make(map[int32]transport.Link),
		services:    make(map[string]Handler),
		pending:     make(map[uint32]*Future),
		modules:     make(map[string]Module),
		modUndo:     make(map[string][]func()),
		local:       opts.Local,
	}
	if b.callTimeout <= 0 {
		b.callTimeout = DefaultCallTimeout
	}
	b.parentRank = ParentRank(b.rank, b.k)
	if opts.Timers != nil {
		b.wheel = newDeadlineWheel(opts.Timers)
	}
	if opts.Heal != nil {
		b.initHeal(opts.Heal)
	}
	b.registerBuiltins()
	return b, nil
}

// Rank returns this broker's TBON rank.
func (b *Broker) Rank() int32 { return b.rank }

// Size returns the instance size (broker count).
func (b *Broker) Size() int32 { return b.size }

// Fanout returns the TBON arity.
func (b *Broker) Fanout() int { return b.k }

// Clock returns the broker's time source.
func (b *Broker) Clock() simtime.Clock { return b.clock }

// Stats returns a snapshot of activity counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// PendingRPCs returns the number of in-flight RPCs awaiting responses —
// matchtags not yet reclaimed. Every completion path (response, timeout,
// cancel, sim no-reply) reclaims its entry, so a steady-state broker
// reports zero.
func (b *Broker) PendingRPCs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// SetParent attaches the upstream link (toward rank 0).
func (b *Broker) SetParent(l transport.Link) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parent = l
}

// AddChild attaches a downstream link for the direct child childRank.
func (b *Broker) AddChild(childRank int32, l transport.Link) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.children[childRank] = l
	b.rebuildChildListLocked()
}

// rebuildChildListLocked replaces childList with the current children
// sorted by rank. Caller holds b.mu.
func (b *Broker) rebuildChildListLocked() {
	list := make([]childLink, 0, len(b.children))
	for r, l := range b.children {
		list = append(list, childLink{r, l})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].rank < list[j].rank })
	b.childList = list
}

// ParentRank returns the TBON parent of rank r for arity k (r=0 has none).
func ParentRank(r int32, k int) int32 {
	if r == 0 {
		return -1
	}
	return (r - 1) / int32(k)
}

// ChildRanks returns the direct children of rank r in a k-ary tree of the
// given size.
func ChildRanks(r int32, k int, size int32) []int32 {
	var out []int32
	for i := 1; i <= k; i++ {
		c := r*int32(k) + int32(i)
		if c < size {
			out = append(out, c)
		}
	}
	return out
}

// SubtreeSize returns the number of ranks in the subtree rooted at r
// (including r itself) in a k-ary tree of the given size. The reduction
// plane uses it to account for how many contributions a dead child's
// subtree takes with it.
func SubtreeSize(r int32, k int, size int32) int {
	if r < 0 || r >= size {
		return 0
	}
	// Level l of the subtree spans the contiguous rank range produced by
	// applying the child formula l times to [r, r].
	n := 0
	lo, hi := r, r
	for lo < size {
		if hi >= size {
			hi = size - 1
		}
		n += int(hi - lo + 1)
		lo = lo*int32(k) + 1
		hi = hi*int32(k) + int32(k)
	}
	return n
}

// TreeDepth returns the depth of rank r (root = 0).
func TreeDepth(r int32, k int) int {
	d := 0
	for r > 0 {
		r = ParentRank(r, k)
		d++
	}
	return d
}

// nextHop computes the link to forward a message destined for target:
// the child whose subtree contains target, else the parent. On a
// pristine topology the subtree test is the closed-form k-ary ancestor
// walk; once a heal has mutated the tree, routing switches to the
// recorded per-child subtree membership (see heal.go).
func (b *Broker) nextHop(target int32) (transport.Link, error) {
	if target < 0 || target >= b.size {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrNoRoute, target, b.size)
	}
	if target == b.rank {
		return nil, nil // target is us
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.childSets != nil {
		// Elastic topology. Child subtrees are kept disjoint, so at most
		// one set owns the target.
		for c, set := range b.childSets {
			if set[target] {
				l, ok := b.children[c]
				if !ok {
					return nil, fmt.Errorf("%w: child %d not connected", ErrNoRoute, c)
				}
				return l, nil
			}
		}
		if b.rank == 0 || b.parent == nil {
			// Unowned at the root means the rank's subtree is currently
			// detached (mid-heal) — there is no route until it reattaches.
			return nil, fmt.Errorf("%w: rank %d currently detached from rank %d", ErrNoRoute, target, b.rank)
		}
		return b.parent, nil
	}
	// Pristine topology: walk target's ancestor chain; if it passes
	// through us, the node just below us on the chain is the child to use.
	cur := target
	prev := int32(-1)
	for cur != -1 {
		if cur == b.rank {
			break
		}
		prev = cur
		cur = ParentRank(cur, b.k)
	}
	if cur == b.rank {
		l, ok := b.children[prev]
		if !ok {
			return nil, fmt.Errorf("%w: child %d not connected", ErrNoRoute, prev)
		}
		return l, nil
	}
	if b.parent == nil {
		return nil, fmt.Errorf("%w: no parent link from rank %d", ErrNoRoute, b.rank)
	}
	return b.parent, nil
}

// RegisterService installs a handler for a topic prefix. A handler
// registered as "power.monitor" receives "power.monitor" and every topic
// under it ("power.monitor.collect", ...). Longest-prefix wins on dispatch.
func (b *Broker) RegisterService(prefix string, h Handler) error {
	if err := msg.ValidateTopic(prefix); err != nil {
		return err
	}
	if h == nil {
		return errors.New("broker: nil service handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.services[prefix]; dup {
		return fmt.Errorf("%w: %q", ErrDupService, prefix)
	}
	b.services[prefix] = h
	return nil
}

// UnregisterService removes a service registration.
func (b *Broker) UnregisterService(prefix string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.services, prefix)
}

// lookupService finds the longest registered prefix of topic.
func (b *Broker) lookupService(topic string) (Handler, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	probe := topic
	for {
		if h, ok := b.services[probe]; ok {
			return h, true
		}
		i := strings.LastIndex(probe, ".")
		if i < 0 {
			return nil, false
		}
		probe = probe[:i]
	}
}

// Subscribe registers fn for events whose topic matches pattern (exact or
// "prefix.*" glob). It returns an unsubscribe function. Subscriptions are
// identified by id, not slice position, so unsubscribing compacts the
// table without invalidating other outstanding unsubscribe closures — a
// module load/unload loop does not grow broker state.
func (b *Broker) Subscribe(pattern string, fn EventHandler) func() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextSubID++
	id := b.nextSubID
	b.subs = append(b.subs, subscription{id: id, pattern: pattern, fn: fn})
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		for i, s := range b.subs {
			if s.id == id {
				b.subs = append(b.subs[:i], b.subs[i+1:]...)
				return
			}
		}
	}
}

// Subscriptions returns the number of live event subscriptions.
func (b *Broker) Subscriptions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Publish emits an event. From a non-root broker the event travels
// upstream to rank 0, which assigns a sequence number and broadcasts it to
// the whole instance (including the publisher).
func (b *Broker) Publish(topic string, payload any) error {
	ev, err := msg.NewEvent(topic, b.rank, 0, payload)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.stats.EventsPublished++
	b.mu.Unlock()
	return b.routeEvent(ev, true)
}

// routeEvent handles event flow. fromBelow marks events moving upstream
// (from the publisher toward root); once sequenced at root they flood
// downward with fromBelow=false.
func (b *Broker) routeEvent(ev *msg.Message, fromBelow bool) error {
	if fromBelow && b.rank != 0 {
		b.mu.Lock()
		parent := b.parent
		b.mu.Unlock()
		if parent == nil {
			return fmt.Errorf("%w: cannot publish without parent", ErrNoRoute)
		}
		if !b.bumpHops(ev) {
			return fmt.Errorf("%w: event %q exceeded hop limit", ErrNoRoute, ev.Topic)
		}
		return parent.Send(ev)
	}
	if b.rank == 0 && fromBelow {
		b.mu.Lock()
		b.eventSeq++
		ev = ev.Copy()
		ev.Seq = b.eventSeq
		b.mu.Unlock()
	}
	// A reattached broker can transiently receive the same flooded event
	// twice — once relayed by its old parent before the prune, once by
	// its new parent. Root assigns the seqs itself so only non-root
	// brokers dedupe, on a window of recently seen seqs.
	if b.rank != 0 && ev.Seq != 0 {
		b.mu.Lock()
		fresh := b.evWindow.admit(ev.Seq)
		b.mu.Unlock()
		if !fresh {
			return nil
		}
	}
	// Deliver locally, then flood downward in rank order. A failed child
	// link must not starve its siblings: keep flooding, count each
	// failure, and report them joined.
	b.deliverEvent(ev)
	b.mu.Lock()
	links := b.childList
	b.mu.Unlock()
	var errs []error
	for _, c := range links {
		if err := c.l.Send(ev); err != nil {
			b.mu.Lock()
			b.stats.RoutingErrors++
			b.mu.Unlock()
			errs = append(errs, fmt.Errorf("broker: event %q to child %d: %w", ev.Topic, c.rank, err))
		}
	}
	return errors.Join(errs...)
}

func (b *Broker) deliverEvent(ev *msg.Message) {
	var buf [8]EventHandler // matching handlers; spills to the heap past 8
	fns := buf[:0]
	b.mu.Lock()
	for _, s := range b.subs {
		if s.fn != nil && msg.MatchGlob(s.pattern, ev.Topic) {
			fns = append(fns, s.fn)
		}
	}
	b.stats.EventsDelivered++
	b.mu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// RPC sends a request to nodeID (msg.NodeAny routes upstream to the
// nearest broker providing the service) and returns a Future for the
// response. With in-memory links and a synchronous responder, the future
// is resolved before RPC returns. The future has no broker-side deadline;
// use RPCWithTimeout to bound it.
func (b *Broker) RPC(nodeID int32, topic string, payload any) *Future {
	return b.rpc(nodeID, topic, payload, 0)
}

// RPCWithTimeout is RPC with a deadline: if no response arrives within
// timeout (simulated time under the scheduler, wall time live), the
// future resolves with ETIMEDOUT and the matchtag's pending entry is
// reclaimed. A non-positive timeout means no deadline. A response that
// arrives during delivery (in-memory links) arms no deadline timer.
func (b *Broker) RPCWithTimeout(nodeID int32, topic string, payload any, timeout time.Duration) *Future {
	return b.rpc(nodeID, topic, payload, timeout)
}

func (b *Broker) rpc(nodeID int32, topic string, payload any, timeout time.Duration) *Future {
	f := &Future{b: b, topic: topic, nodeID: nodeID}
	b.mu.Lock()
	b.nextTag++
	f.tag = b.nextTag
	b.pending[f.tag] = f
	b.stats.RPCsIssued++
	b.mu.Unlock()
	req, err := msg.NewRequest(topic, nodeID, b.rank, f.tag, payload)
	if err != nil {
		b.reclaim(f.tag)
		f.complete(msg.NewErrorResponse(f.requestStub(), b.rank, msg.EINVAL, err.Error()), err)
		return f
	}
	// The deadline runs from the send, but it is armed only after
	// delivery, and only if no reply arrived during delivery: in-memory
	// links answer synchronously, and a resolved future needs no timer.
	// A live reply racing the arming is handled inside schedule.
	armed := timeout > 0 && b.wheel != nil
	var due simtime.Time
	if armed {
		due = b.wheel.timers.Now().Add(timeout)
	}
	b.Deliver(req)
	if armed {
		b.wheel.schedule(f, due)
	}
	return f
}

// reclaim drops a matchtag's pending-table entry (idempotent). The
// reclaim counter only moves when an entry was actually present, so
// double reclaims (wheel expiry then Wait backstop) cannot inflate it
// past RPCsIssued.
func (b *Broker) reclaim(tag uint32) {
	b.mu.Lock()
	if _, ok := b.pending[tag]; ok {
		delete(b.pending, tag)
		b.stats.TagsReclaimed++
	}
	b.mu.Unlock()
}

// Call issues the RPC and waits for the response, using the broker's
// configured call timeout (Options.CallTimeout). In simulation the
// response resolves synchronously and Call returns without blocking; over
// live transports it blocks until the response or the deadline. The same
// client code therefore works in both modes.
func (b *Broker) Call(nodeID int32, topic string, payload any) (*msg.Message, error) {
	return b.CallTimeout(nodeID, topic, payload, b.callTimeout)
}

// CallTimeout is Call with an explicit deadline.
func (b *Broker) CallTimeout(nodeID int32, topic string, payload any, timeout time.Duration) (*msg.Message, error) {
	f := b.RPCWithTimeout(nodeID, topic, payload, timeout)
	// The deadline wheel is the authoritative timeout (it reclaims the
	// matchtag and counts the expiry); Wait's own timer is a backstop one
	// quantum later for brokers without a timer provider.
	return f.Wait(timeout + 2*wheelQuantum)
}

// CallContext is Call with a caller-supplied context: the RPC's deadline
// comes from the context (falling back to the broker's configured call
// timeout when the context carries none), and cancellation abandons the
// RPC mid-flight. This is the entry point request-scoped callers (HTTP
// handlers) use to propagate per-request deadlines down to the TBON.
func (b *Broker) CallContext(ctx context.Context, nodeID int32, topic string, payload any) (*msg.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	timeout := b.callTimeout
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
		if timeout <= 0 {
			return nil, context.DeadlineExceeded
		}
	}
	f := b.RPCWithTimeout(nodeID, topic, payload, timeout)
	return f.WaitContext(ctx)
}

// Gather is the flat fan-out/fan-in: it sends topic with body to every
// rank in ranks before waiting on any, then hands each rank's response
// or error to each, in the order of ranks. Every deadline is armed at
// issue, so the waits expire together: the gather costs one round trip
// to the slowest rank, and a dead rank costs one timeout in total, not
// one per rank.
func (b *Broker) Gather(ranks []int32, topic string, body any, timeout time.Duration, each func(rank int32, resp *msg.Message, err error)) {
	futures := make([]*Future, len(ranks))
	for i, rank := range ranks {
		futures[i] = b.RPCWithTimeout(rank, topic, body, timeout)
	}
	for i, rank := range ranks {
		resp, err := futures[i].Wait(timeout)
		each(rank, resp, err)
	}
}

// Deliver injects a message into this broker, as a transport would. It
// routes or dispatches as appropriate.
func (b *Broker) Deliver(m *msg.Message) {
	switch m.Type {
	case msg.TypeRequest:
		b.deliverRequest(m)
	case msg.TypeResponse:
		b.deliverResponse(m)
	case msg.TypeEvent:
		// An unsequenced event (Seq == 0) is still moving upstream toward
		// root; sequenced events are flooding downward.
		_ = b.routeEvent(m, m.Seq == 0)
	case msg.TypeControl:
		// Control messages are point-to-point broker internals. The heal
		// protocol (heartbeats, reattach handshake, subtree accounting)
		// rides on them; without healing enabled they remain ignored.
		if b.heal != nil {
			b.handleControl(m)
		}
	default:
		b.mu.Lock()
		b.stats.RoutingErrors++
		b.mu.Unlock()
	}
}

func (b *Broker) deliverRequest(m *msg.Message) {
	// NodeAny: serve locally if we can, else walk upstream.
	if m.NodeID == msg.NodeAny {
		if h, ok := b.lookupService(m.Topic); ok {
			b.dispatch(h, m)
			return
		}
		if b.rank == 0 {
			b.respondErr(m, msg.ENOSYS, fmt.Sprintf("service for %q not found on instance", m.Topic))
			return
		}
		b.mu.Lock()
		parent := b.parent
		b.stats.RequestsRouted++
		b.mu.Unlock()
		if parent == nil {
			b.respondErr(m, msg.EHOSTUNREACH, "no parent link")
			return
		}
		if !b.bumpHops(m) {
			b.respondErr(m, msg.EHOSTUNREACH, fmt.Sprintf("hop limit %d exceeded for %q", maxHops, m.Topic))
			return
		}
		if err := parent.Send(m); err != nil {
			b.respondErr(m, msg.EHOSTUNREACH, err.Error())
		}
		return
	}
	// Addressed request.
	hop, err := b.nextHop(m.NodeID)
	if err != nil {
		b.respondErr(m, msg.EHOSTUNREACH, err.Error())
		return
	}
	if hop == nil { // we are the destination
		if h, ok := b.lookupService(m.Topic); ok {
			b.dispatch(h, m)
			return
		}
		b.respondErr(m, msg.ENOSYS, fmt.Sprintf("rank %d has no service for %q", b.rank, m.Topic))
		return
	}
	if !b.bumpHops(m) {
		b.respondErr(m, msg.EHOSTUNREACH, fmt.Sprintf("hop limit %d exceeded for %q", maxHops, m.Topic))
		return
	}
	b.mu.Lock()
	b.stats.RequestsRouted++
	b.mu.Unlock()
	if err := hop.Send(m); err != nil {
		b.respondErr(m, msg.EHOSTUNREACH, err.Error())
	}
}

// bumpHops enforces the routing-loop hop limit on forwarded messages.
// Only meaningful while healing is enabled: a pristine k-ary tree cannot
// loop, and leaving messages untouched keeps heal-off wire bytes
// identical to the fixed-topology broker. It reports whether the message
// may still be forwarded.
func (b *Broker) bumpHops(m *msg.Message) bool {
	if b.heal == nil {
		return true
	}
	if m.Hops >= maxHops {
		b.mu.Lock()
		b.stats.RoutingErrors++
		b.mu.Unlock()
		return false
	}
	m.Hops++
	return true
}

func (b *Broker) deliverResponse(m *msg.Message) {
	if m.NodeID == b.rank {
		b.mu.Lock()
		f, ok := b.pending[m.Matchtag]
		if ok {
			delete(b.pending, m.Matchtag)
			b.stats.TagsReclaimed++
		}
		b.mu.Unlock()
		if ok {
			f.resolve(m)
		}
		// A response with no pending entry is a stray (late arrival after
		// its deadline fired): dropped.
		return
	}
	hop, err := b.nextHop(m.NodeID)
	if err != nil || hop == nil {
		b.mu.Lock()
		b.stats.RoutingErrors++
		b.mu.Unlock()
		return // response to an unreachable requester is dropped
	}
	if !b.bumpHops(m) {
		return // looping response is dropped
	}
	b.mu.Lock()
	b.stats.ResponsesRouted++
	b.mu.Unlock()
	_ = hop.Send(m)
}

func (b *Broker) dispatch(h Handler, m *msg.Message) {
	b.mu.Lock()
	b.stats.RequestsHandled++
	b.mu.Unlock()
	req := &Request{Msg: m, broker: b}
	if b.sync {
		// Deterministic simulation: handlers run inline on the delivering
		// goroutine.
		h(req)
		return
	}
	// Live mode: each request gets its own goroutine so a handler that
	// blocks on downstream RPCs (the root-agent's fan-out) cannot wedge
	// the transport reader its request arrived on.
	go h(req)
}

// respondErr sends an error response back toward the requester. Requests
// originated by this broker short-circuit to the local pending table.
func (b *Broker) respondErr(req *msg.Message, errnum int, errstr string) {
	resp := msg.NewErrorResponse(req, b.rank, errnum, errstr)
	b.Deliver(resp)
}

// Request is a dispatched request with its response plumbing.
type Request struct {
	Msg    *msg.Message
	broker *Broker
}

// Respond sends a success response with the given payload.
func (r *Request) Respond(payload any) error {
	resp, err := msg.NewResponse(r.Msg, r.broker.rank, payload)
	if err != nil {
		return err
	}
	r.broker.Deliver(resp)
	return nil
}

// Fail sends an error response.
func (r *Request) Fail(errnum int, errstr string) error {
	r.broker.Deliver(msg.NewErrorResponse(r.Msg, r.broker.rank, errnum, errstr))
	return nil
}

// registerBuiltins installs the broker's own services.
func (b *Broker) registerBuiltins() {
	// broker.ping: liveness and identity probe.
	_ = b.RegisterService("broker.ping", func(req *Request) {
		_ = req.Respond(pingReply{Rank: b.rank, Size: b.size, Time: b.clock.Now().Seconds()})
	})
	// broker.stats: activity counters.
	_ = b.RegisterService("broker.stats", func(req *Request) {
		_ = req.Respond(b.Stats())
	})
	// broker.health: leak/liveness snapshot for the invariant checker and
	// power-monitor.status fan-out.
	_ = b.RegisterService("broker.health", func(req *Request) {
		_ = req.Respond(b.Health())
	})
	// broker.services: registry listing, for debugging.
	_ = b.RegisterService("broker.services", func(req *Request) {
		b.mu.Lock()
		names := make([]string, 0, len(b.services))
		for name := range b.services {
			names = append(names, name)
		}
		b.mu.Unlock()
		sort.Strings(names)
		_ = req.Respond(servicesReply{Services: names})
	})
}

// pingReply and servicesReply are the builtin services' payloads. Fields
// stay in alphabetical JSON-key order: TestBuiltinReplyBytes pins the
// encoded bytes.
type pingReply struct {
	Rank int32   `json:"rank"`
	Size int32   `json:"size"`
	Time float64 `json:"time"`
}

type servicesReply struct {
	Services []string `json:"services"`
}

// Module is a dynamically loaded broker plugin (Flux RFC 5). Modules have
// their own identity, register services against the broker, and are torn
// down on unload.
type Module interface {
	// Name identifies the module ("power-monitor", "power-manager").
	Name() string
	// Init wires the module into the broker. Returning an error aborts
	// the load.
	Init(ctx *Context) error
	// Shutdown releases module resources. Called on unload.
	Shutdown() error
}

// ModuleFuncs adapts function literals into a Module — the convenient
// form for small single-purpose modules (test fixtures, one-service
// shims) that don't warrant a named type.
type ModuleFuncs struct {
	NameFn     string
	InitFn     func(ctx *Context) error
	ShutdownFn func() error // optional
}

// Name implements Module.
func (m ModuleFuncs) Name() string { return m.NameFn }

// Init implements Module.
func (m ModuleFuncs) Init(ctx *Context) error {
	if m.InitFn == nil {
		return errors.New("broker: ModuleFuncs without InitFn")
	}
	return m.InitFn(ctx)
}

// Shutdown implements Module.
func (m ModuleFuncs) Shutdown() error {
	if m.ShutdownFn == nil {
		return nil
	}
	return m.ShutdownFn()
}

// Context is the capability surface handed to a module at load time.
type Context struct {
	broker *Broker
	module string
	undo   []func()
}

// Rank returns the hosting broker's rank.
func (c *Context) Rank() int32 { return c.broker.rank }

// Size returns the instance size.
func (c *Context) Size() int32 { return c.broker.size }

// Clock returns simulated time.
func (c *Context) Clock() simtime.Clock { return c.broker.clock }

// Local returns the per-node resources (the simulated hw.Node).
func (c *Context) Local() any { return c.broker.local }

// Broker exposes the hosting broker for advanced use (RPC fan-out).
func (c *Context) Broker() *Broker { return c.broker }

// RegisterService installs a service handler that is removed on unload.
func (c *Context) RegisterService(prefix string, h Handler) error {
	if err := c.broker.RegisterService(prefix, h); err != nil {
		return err
	}
	c.undo = append(c.undo, func() { c.broker.UnregisterService(prefix) })
	return nil
}

// Subscribe registers an event handler that is removed on unload.
func (c *Context) Subscribe(pattern string, fn EventHandler) {
	unsub := c.broker.Subscribe(pattern, fn)
	c.undo = append(c.undo, unsub)
}

// Publish emits an event into the instance.
func (c *Context) Publish(topic string, payload any) error {
	return c.broker.Publish(topic, payload)
}

// RPC issues a request from this broker and returns its future.
func (c *Context) RPC(nodeID int32, topic string, payload any) *Future {
	return c.broker.RPC(nodeID, topic, payload)
}

// RPCWithTimeout issues a deadline-bounded request from this broker.
func (c *Context) RPCWithTimeout(nodeID int32, topic string, payload any, timeout time.Duration) *Future {
	return c.broker.RPCWithTimeout(nodeID, topic, payload, timeout)
}

// Every arms a periodic timer that is stopped on unload. In simulation
// mode callbacks run deterministically on the engine's goroutine; in live
// mode (simtime.Wall) they run on their own goroutines.
func (c *Context) Every(period time.Duration, fn simtime.TimerFunc) (simtime.TimerHandle, error) {
	if c.broker.timers == nil {
		return nil, errors.New("broker: no timer provider available for module timers")
	}
	t := c.broker.timers.Every(period, fn)
	c.undo = append(c.undo, t.Stop)
	return t, nil
}

// After arms a one-shot timer that is cancelled on unload.
func (c *Context) After(d time.Duration, fn simtime.TimerFunc) (simtime.TimerHandle, error) {
	if c.broker.timers == nil {
		return nil, errors.New("broker: no timer provider available for module timers")
	}
	t := c.broker.timers.AfterFunc(d, fn)
	c.undo = append(c.undo, t.Stop)
	return t, nil
}

// LoadModule loads and initializes a module on this broker.
func (b *Broker) LoadModule(m Module) error {
	b.mu.Lock()
	if _, dup := b.modules[m.Name()]; dup {
		b.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDupModule, m.Name())
	}
	b.mu.Unlock()
	ctx := &Context{broker: b, module: m.Name()}
	if err := m.Init(ctx); err != nil {
		for _, u := range ctx.undo {
			u()
		}
		return fmt.Errorf("broker: loading module %q: %w", m.Name(), err)
	}
	b.mu.Lock()
	b.modules[m.Name()] = m
	b.modUndo[m.Name()] = ctx.undo
	b.mu.Unlock()
	return nil
}

// UnloadModule shuts a module down and removes its registrations.
func (b *Broker) UnloadModule(name string) error {
	b.mu.Lock()
	m, ok := b.modules[name]
	var undo []func()
	if ok {
		delete(b.modules, name)
		undo = b.modUndo[name]
		delete(b.modUndo, name)
	}
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("broker: module %q not loaded", name)
	}
	err := m.Shutdown()
	for _, u := range undo {
		u()
	}
	return err
}

// Modules returns the names of loaded modules, sorted.
func (b *Broker) Modules() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.modules))
	for name := range b.modules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
