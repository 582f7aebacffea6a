package broker

// Self-healing elastic TBON.
//
// The fixed k-ary tree survives faults (requests route around dead
// subtrees and reductions report Partial coverage) but never recovers
// from them: a crashed interior rank leaves its whole subtree orphaned
// forever. This file adds the heal protocol:
//
//   - Detection: every non-root broker heartbeats its parent each
//     Interval; the parent acks. A child that misses MissThreshold
//     intervals of acks declares its parent dead. A parent that misses
//     MissThreshold intervals of heartbeats prunes the child (keeping
//     the link aside so a wrongly-pruned child can still be steered
//     back through the reattach handshake).
//
//   - Reattach: the orphan walks its ancestor chain deterministically —
//     current parent first (covering transient loss and rejoin after a
//     prune over the existing link), then grandparent, and so on up to
//     rank 0, dialing a fresh link per candidate. The adopter installs
//     the orphan's full subtree into its routing table, propagates the
//     net membership delta toward root, and only then acks, so by the
//     time the orphan resumes publishing the upward path is routable.
//
//   - Accounting: each broker tracks the exact member set of every
//     child subtree. The sets start as the closed-form k-ary subtrees
//     (childSets == nil marks the pristine fast path, byte-identical to
//     the fixed-topology broker) and are materialized on the first
//     runtime mutation. Heartbeats carry a subtree count+hash so a
//     parent whose record has drifted (lost deltas during a fault
//     window) requests a full resync — anti-entropy that converges the
//     accounting without trusting any individual delta delivery.
//
// All heal traffic is msg.TypeControl on direct links: it never routes
// through the tree, so it works while the tree is broken.

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/simtime"
)

// HealConfig enables and tunes the self-healing TBON extension.
type HealConfig struct {
	// Interval is the heartbeat period (default 250ms).
	Interval time.Duration
	// MissThreshold is how many silent intervals mark a peer dead
	// (default 3).
	MissThreshold int
}

func (c HealConfig) withDefaults() HealConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	return c
}

// Heal protocol control topics. Control messages travel point-to-point
// over a single link and are never routed.
const (
	healHeartbeatTopic = "broker.heal.hb"
	healHeartbeatAck   = "broker.heal.hb-ack"
	healReattachTopic  = "broker.heal.reattach"
	healReattachOK     = "broker.heal.reattach-ok"
	healSubtreeTopic   = "broker.heal.subtree"
	healDetachTopic    = "broker.heal.detach"
)

// TopicReattach is the instance event a broker publishes after it has
// installed a new (or re-confirmed) parent. Modules that cache topology
// (the power manager's cap pushes, the gateway's rank→job stream
// filters) subscribe to it to refresh state for the moved ranks.
const TopicReattach = "broker.topology.reattach"

// ReattachEvent is the payload of TopicReattach.
type ReattachEvent struct {
	// Rank is the broker that reattached.
	Rank int32 `json:"rank"`
	// OldParent / NewParent are its upstream before and after the move
	// (equal on a rejoin to the same parent).
	OldParent int32 `json:"old_parent"`
	NewParent int32 `json:"new_parent"`
	// Ranks is the full membership of the moved subtree, Rank included.
	Ranks []int32 `json:"ranks"`
	// Rejoin marks a reattach over the existing parent link (the parent
	// had pruned us) rather than a move to a new parent.
	Rejoin bool `json:"rejoin"`
}

type healHeartbeat struct {
	Count int    `json:"count"`
	Hash  uint64 `json:"hash"`
}

type healAck struct {
	Known  bool `json:"known"`
	Resync bool `json:"resync,omitempty"`
}

type healReattach struct {
	Ranks []int32 `json:"ranks"`
}

type healReattachAck struct {
	Parent    int32   `json:"parent"`
	Ancestors []int32 `json:"ancestors"`
}

type healSubtree struct {
	Add    []int32 `json:"add,omitempty"`
	Remove []int32 `json:"remove,omitempty"`
	Full   []int32 `json:"full,omitempty"`
	IsFull bool    `json:"is_full,omitempty"`
}

// healState is the per-broker heal machinery. Its mutex is disjoint
// from Broker.mu and, like it, is never held across a link send or a
// handler call.
type healState struct {
	cfg   HealConfig
	timer simtime.TimerHandle

	mu sync.Mutex
	// heard tracks the last heartbeat instant per current child,
	// lazily initialized at the first tick a child is observed.
	heard map[int32]simtime.Time
	// lastAck is the last instant the parent acked one of our
	// heartbeats; ackInit defers staleness until the first tick.
	lastAck simtime.Time
	ackInit bool
	// Reattach machine: candidates is the ancestor chain snapshot the
	// current search walks, pendingTo/pendingLink the in-flight attempt.
	reattaching bool
	candidates  []int32
	candIdx     int
	pendingTo   int32
	pendingLink transport.Link
	sentAt      simtime.Time
	// ancestors is the current upstream chain [parent, ..., 0],
	// refreshed from each reattach ack.
	ancestors []int32
	// offered holds links handed to us by a dialing orphan (OfferLink)
	// awaiting its reattach request.
	offered map[int32]transport.Link
	// reattaches counts completed reattach handshakes on this broker
	// as the orphan side.
	reattaches uint64
	// dialer opens a fresh link to a candidate parent; installed by the
	// instance wiring (in-memory pair in simulation, TCP dial live).
	dialer func(to int32) (transport.Link, error)
}

// initHeal arms the heal machinery; called from New when Options.Heal
// is set, before any link is attached.
func (b *Broker) initHeal(cfg *HealConfig) {
	h := &healState{
		cfg:       cfg.withDefaults(),
		heard:     make(map[int32]simtime.Time),
		offered:   make(map[int32]transport.Link),
		pendingTo: -1,
	}
	for r := ParentRank(b.rank, b.k); r != -1; r = ParentRank(r, b.k) {
		h.ancestors = append(h.ancestors, r)
	}
	b.heal = h
	if b.timers != nil {
		h.timer = b.timers.Every(h.cfg.Interval, b.healTick)
	}
}

// SetDialer installs the function used to open a link toward a
// candidate parent during reattach. No-op without healing.
func (b *Broker) SetDialer(dial func(to int32) (transport.Link, error)) {
	if b.heal == nil {
		return
	}
	b.heal.mu.Lock()
	b.heal.dialer = dial
	b.heal.mu.Unlock()
}

// OfferLink hands this broker the receiving end of a link a dialing
// orphan just opened; the adoption happens when the orphan's reattach
// request arrives over it.
func (b *Broker) OfferLink(from int32, l transport.Link) {
	if b.heal == nil {
		_ = l.Close()
		return
	}
	h := b.heal
	h.mu.Lock()
	old := h.offered[from]
	h.offered[from] = l
	h.mu.Unlock()
	if old != nil && old != l {
		_ = old.Close()
	}
}

// Reattaches reports how many reattach handshakes this broker has
// completed as the orphan side.
func (b *Broker) Reattaches() uint64 {
	if b.heal == nil {
		return 0
	}
	b.heal.mu.Lock()
	defer b.heal.mu.Unlock()
	return b.heal.reattaches
}

// CurrentParent returns the rank this broker currently treats as its
// upstream (-1 at root). It starts as the formula parent and follows
// reattaches.
func (b *Broker) CurrentParent() int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parentRank
}

// Children returns the ranks of the direct children, sorted. On a
// pristine topology this is the closed-form child list, so callers see
// identical behavior with healing disabled.
func (b *Broker) Children() []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.childSets == nil {
		return ChildRanks(b.rank, b.k, b.size)
	}
	out := make([]int32, 0, len(b.childSets))
	for c := range b.childSets {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChildSubtreeCount returns the number of ranks (child included) in the
// subtree currently hanging off direct child c.
func (b *Broker) ChildSubtreeCount(c int32) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.childSets == nil {
		return SubtreeSize(c, b.k, b.size)
	}
	return len(b.childSets[c])
}

// SubtreeCount returns the number of ranks in this broker's own subtree,
// itself included. On a pristine topology it equals SubtreeSize.
func (b *Broker) SubtreeCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, _ := b.subtreeCountHashLocked()
	return n
}

// OwningChild reports which direct child's subtree contains target
// (false if no current child owns it). Pristine topologies answer from
// the closed form, so reduce partitioning is unchanged with healing off.
func (b *Broker) OwningChild(target int32) (int32, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if target == b.rank || target < 0 || target >= b.size {
		return 0, false
	}
	if b.childSets != nil {
		for c, set := range b.childSets {
			if set[target] {
				return c, true
			}
		}
		return 0, false
	}
	cur, prev := target, int32(-1)
	for cur != -1 && cur != b.rank {
		prev = cur
		cur = ParentRank(cur, b.k)
	}
	if cur == b.rank && prev != -1 {
		return prev, true
	}
	return 0, false
}

// subtreeRanks returns every rank of the k-ary subtree rooted at r
// (r included), by level-range walk as in SubtreeSize.
func subtreeRanks(r int32, k int, size int32) []int32 {
	if r < 0 || r >= size {
		return nil
	}
	var out []int32
	lo, hi := r, r
	for lo < size {
		if hi >= size {
			hi = size - 1
		}
		for x := lo; x <= hi; x++ {
			out = append(out, x)
		}
		lo = lo*int32(k) + 1
		hi = hi*int32(k) + int32(k)
	}
	return out
}

// healRankHash mixes a rank into the order-independent subtree hash
// (splitmix64 finalizer).
func healRankHash(r int32) uint64 {
	z := uint64(uint32(r)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// subtreeCountHashLocked computes this broker's own subtree membership
// count and XOR hash (self included). Caller holds b.mu.
func (b *Broker) subtreeCountHashLocked() (int, uint64) {
	count := 1
	hash := healRankHash(b.rank)
	if b.childSets == nil {
		for _, r := range subtreeRanks(b.rank, b.k, b.size) {
			if r != b.rank {
				count++
				hash ^= healRankHash(r)
			}
		}
		return count, hash
	}
	for _, set := range b.childSets {
		for r := range set {
			count++
			hash ^= healRankHash(r)
		}
	}
	return count, hash
}

// recordedCountHashLocked computes the count and hash of the membership
// this broker has recorded for direct child c. Caller holds b.mu.
func (b *Broker) recordedCountHashLocked(c int32) (int, uint64) {
	if b.childSets == nil {
		ranks := subtreeRanks(c, b.k, b.size)
		h := uint64(0)
		for _, r := range ranks {
			h ^= healRankHash(r)
		}
		return len(ranks), h
	}
	h := uint64(0)
	for r := range b.childSets[c] {
		h ^= healRankHash(r)
	}
	return len(b.childSets[c]), h
}

// materializeLocked switches from the pristine closed-form topology to
// explicit per-child membership sets. Caller holds b.mu.
func (b *Broker) materializeLocked() {
	if b.childSets != nil {
		return
	}
	b.childSets = make(map[int32]map[int32]bool, len(b.children))
	b.detached = make(map[int32]transport.Link)
	for c := range b.children {
		set := make(map[int32]bool)
		for _, r := range subtreeRanks(c, b.k, b.size) {
			set[r] = true
		}
		b.childSets[c] = set
	}
}

// ownSubtreeRanks snapshots this broker's full subtree membership,
// sorted, self included.
func (b *Broker) ownSubtreeRanks() []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.childSets == nil {
		return subtreeRanks(b.rank, b.k, b.size)
	}
	out := []int32{b.rank}
	for _, set := range b.childSets {
		for r := range set {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// newControl builds a heal control message. Payload marshalling of the
// small fixed structs above cannot fail.
func newControl(topic string, sender int32, payload any) *msg.Message {
	raw, _ := json.Marshal(payload)
	return &msg.Message{Type: msg.TypeControl, Topic: topic, Sender: sender, Payload: raw}
}

// handleControl dispatches heal protocol traffic; called from Deliver
// with no locks held.
func (b *Broker) handleControl(m *msg.Message) {
	switch m.Topic {
	case healHeartbeatTopic:
		b.handleHeartbeat(m)
	case healHeartbeatAck:
		b.handleHeartbeatAck(m)
	case healReattachTopic:
		b.handleReattach(m)
	case healReattachOK:
		b.handleReattachOK(m)
	case healSubtreeTopic:
		b.handleSubtreeUpdate(m)
	case healDetachTopic:
		b.handleDetach(m)
	}
}

// healTick runs every Interval on every broker: prune silent children,
// then (non-root) either drive the reattach machine or heartbeat the
// parent.
func (b *Broker) healTick(now simtime.Time) {
	h := b.heal
	b.pruneStaleChildren(now)
	if b.rank == 0 {
		return
	}
	h.mu.Lock()
	if h.reattaching {
		// One reattach attempt gets two heartbeat intervals before the
		// orphan advances to the next candidate parent.
		if now.Sub(h.sentAt) < 2*h.cfg.Interval {
			h.mu.Unlock()
			return
		}
		// The in-flight attempt expired: abandon it and advance.
		dialed := h.pendingLink
		h.pendingLink = nil
		h.pendingTo = -1
		h.mu.Unlock()
		if dialed != nil {
			_ = dialed.Close()
		}
		b.tryNextCandidate(now)
		return
	}
	if !h.ackInit {
		h.ackInit = true
		h.lastAck = now
	}
	silent := now.Sub(h.lastAck) > time.Duration(h.cfg.MissThreshold)*h.cfg.Interval
	h.mu.Unlock()
	if silent {
		b.beginReattach(now)
		return
	}
	b.mu.Lock()
	count, hash := b.subtreeCountHashLocked()
	parent := b.parent
	b.mu.Unlock()
	if parent == nil {
		b.beginReattach(now)
		return
	}
	_ = parent.Send(newControl(healHeartbeatTopic, b.rank, healHeartbeat{Count: count, Hash: hash}))
}

// pruneStaleChildren removes children whose heartbeats have gone silent
// for MissThreshold intervals, keeping their links aside in detached so
// a later heartbeat can still be acked (steering the child into a
// rejoin) and propagating the membership removal toward root.
func (b *Broker) pruneStaleChildren(now simtime.Time) {
	h := b.heal
	b.mu.Lock()
	current := make([]int32, 0, len(b.children))
	for r := range b.children {
		current = append(current, r)
	}
	b.mu.Unlock()
	sort.Slice(current, func(i, j int) bool { return current[i] < current[j] })

	limit := time.Duration(h.cfg.MissThreshold) * h.cfg.Interval
	var stale []int32
	h.mu.Lock()
	for _, r := range current {
		t, ok := h.heard[r]
		if !ok {
			h.heard[r] = now
			continue
		}
		if now.Sub(t) > limit {
			stale = append(stale, r)
		}
	}
	for _, r := range stale {
		delete(h.heard, r)
	}
	h.mu.Unlock()

	for _, r := range stale {
		removed := b.pruneChild(r)
		if len(removed) > 0 {
			b.sendSubtreeDelta(nil, removed)
		}
	}
}

// pruneChild detaches direct child r, returning the sorted membership
// of the subtree that left with it.
func (b *Broker) pruneChild(r int32) []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.children[r]
	if !ok {
		return nil
	}
	b.materializeLocked()
	delete(b.children, r)
	b.detached[r] = l
	set := b.childSets[r]
	delete(b.childSets, r)
	removed := make([]int32, 0, len(set))
	for x := range set {
		removed = append(removed, x)
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return removed
}

// sendSubtreeDelta propagates a net membership change to the parent.
func (b *Broker) sendSubtreeDelta(add, remove []int32) {
	if b.rank == 0 {
		return
	}
	b.mu.Lock()
	parent := b.parent
	b.mu.Unlock()
	if parent == nil {
		return
	}
	_ = parent.Send(newControl(healSubtreeTopic, b.rank, healSubtree{Add: add, Remove: remove}))
}

// beginReattach starts an ancestor-chain search for a new parent. The
// first candidate is the current parent itself (over the existing
// link), which turns a transiently lossy parent or a prune-side false
// positive into a cheap rejoin before any new link is dialed.
func (b *Broker) beginReattach(now simtime.Time) {
	h := b.heal
	h.mu.Lock()
	if h.reattaching {
		h.mu.Unlock()
		return
	}
	h.reattaching = true
	h.candidates = append([]int32(nil), h.ancestors...)
	h.candIdx = 0
	h.pendingTo = -1
	h.pendingLink = nil
	h.mu.Unlock()
	b.tryNextCandidate(now)
}

// tryNextCandidate advances the reattach search: pick the next
// candidate, obtain a link to it (existing parent link, or a fresh
// dial), and send the reattach request. A send failure advances
// immediately, bounded to one pass over the candidate list per
// invocation; the periodic reattach-timeout expiry retries after that.
func (b *Broker) tryNextCandidate(now simtime.Time) {
	h := b.heal
	for attempt := 0; ; attempt++ {
		h.mu.Lock()
		if !h.reattaching || len(h.candidates) == 0 || attempt >= len(h.candidates) {
			h.mu.Unlock()
			return
		}
		to := h.candidates[h.candIdx%len(h.candidates)]
		h.candIdx++
		dialer := h.dialer
		h.mu.Unlock()

		b.mu.Lock()
		var existing transport.Link
		if to == b.parentRank && b.parent != nil {
			existing = b.parent
		}
		b.mu.Unlock()

		link := existing
		var dialed transport.Link
		if link == nil {
			if dialer == nil {
				continue
			}
			l, err := dialer(to)
			if err != nil {
				continue
			}
			link, dialed = l, l
		}

		// Arm the pending attempt BEFORE sending: with in-memory links
		// the reattach ack resolves inline during Send.
		h.mu.Lock()
		if !h.reattaching {
			h.mu.Unlock()
			if dialed != nil {
				_ = dialed.Close()
			}
			return
		}
		h.pendingTo = to
		h.pendingLink = dialed
		h.sentAt = now
		h.mu.Unlock()

		req := newControl(healReattachTopic, b.rank, healReattach{Ranks: b.ownSubtreeRanks()})
		if err := link.Send(req); err == nil {
			return // wait for the ack or the reattach timeout
		}
		// Unreachable candidate: clear the attempt if it is still ours
		// (the inline ack may have resolved it despite the error) and
		// move on.
		h.mu.Lock()
		stillOurs := h.reattaching && h.pendingTo == to && h.pendingLink == dialed
		if stillOurs {
			h.pendingTo = -1
			h.pendingLink = nil
		}
		h.mu.Unlock()
		if dialed != nil {
			_ = dialed.Close()
		}
		if !stillOurs {
			return
		}
	}
}

// handleHeartbeat is the parent side of detection: record the child as
// alive and ack, flagging a resync when the child's subtree accounting
// disagrees with ours. A heartbeat from a pruned child is acked
// Known=false over the retained link, steering it into a rejoin.
func (b *Broker) handleHeartbeat(m *msg.Message) {
	var hb healHeartbeat
	if err := m.Unmarshal(&hb); err != nil {
		return
	}
	s := m.Sender
	now := b.clock.Now()
	h := b.heal
	h.mu.Lock()
	h.heard[s] = now
	h.mu.Unlock()

	b.mu.Lock()
	link, known := b.children[s]
	var resync bool
	if known {
		count, hash := b.recordedCountHashLocked(s)
		resync = count != hb.Count || hash != hb.Hash
	} else if b.detached != nil {
		link = b.detached[s]
	}
	b.mu.Unlock()
	if link == nil {
		return // no link to answer on; the child will dial an ancestor
	}
	_ = link.Send(newControl(healHeartbeatAck, b.rank, healAck{Known: known, Resync: resync}))
}

// handleHeartbeatAck is the child side: the parent is alive. Known=false
// means it pruned us — run the reattach handshake over the existing
// link to be re-adopted. Resync means our accounting drifted apart —
// send the authoritative full membership.
func (b *Broker) handleHeartbeatAck(m *msg.Message) {
	var ack healAck
	if err := m.Unmarshal(&ack); err != nil {
		return
	}
	h := b.heal
	h.mu.Lock()
	h.lastAck = b.clock.Now()
	h.ackInit = true
	h.mu.Unlock()
	if !ack.Known {
		b.beginReattach(b.clock.Now())
		return
	}
	if ack.Resync {
		b.sendFullSubtree()
	}
}

// sendFullSubtree pushes the authoritative membership of our subtree to
// the parent (anti-entropy resolution).
func (b *Broker) sendFullSubtree() {
	b.mu.Lock()
	parent := b.parent
	b.mu.Unlock()
	if parent == nil {
		return
	}
	_ = parent.Send(newControl(healSubtreeTopic, b.rank, healSubtree{Full: b.ownSubtreeRanks(), IsFull: true}))
}

// handleReattach is the adopter side: install the orphan's subtree
// under a link we hold for it (freshly offered by its dial, the current
// child link on a rejoin, or the retained link of a pruned child),
// propagate the net membership delta toward root, and only then ack —
// so the upward path is routable before the orphan resumes publishing.
func (b *Broker) handleReattach(m *msg.Message) {
	var req healReattach
	if err := m.Unmarshal(&req); err != nil {
		return
	}
	s := m.Sender
	if s == b.rank {
		return
	}
	now := b.clock.Now()
	h := b.heal

	h.mu.Lock()
	link := h.offered[s]
	delete(h.offered, s)
	h.mu.Unlock()

	b.mu.Lock()
	if link == nil {
		link = b.children[s]
	}
	if link == nil && b.detached != nil {
		link = b.detached[s]
	}
	if link == nil {
		b.mu.Unlock()
		return
	}
	b.materializeLocked()
	newSet := make(map[int32]bool, len(req.Ranks)+1)
	for _, r := range req.Ranks {
		if r != b.rank {
			newSet[r] = true
		}
	}
	newSet[s] = true
	ranks := make([]int32, 0, len(newSet))
	for r := range newSet {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	prev := b.childSets[s]
	var addUp, removeUp []int32
	for _, r := range ranks {
		owned := prev[r]
		for c, set := range b.childSets {
			if c != s && set[r] {
				delete(set, r)
				owned = true
			}
		}
		if !owned {
			addUp = append(addUp, r)
		}
	}
	for r := range prev {
		if !newSet[r] {
			removeUp = append(removeUp, r)
		}
	}
	sort.Slice(removeUp, func(i, j int) bool { return removeUp[i] < removeUp[j] })
	b.children[s] = link
	b.childSets[s] = newSet
	delete(b.detached, s)
	b.mu.Unlock()

	h.mu.Lock()
	h.heard[s] = now
	anc := append([]int32{b.rank}, h.ancestors...)
	h.mu.Unlock()

	if len(addUp)+len(removeUp) > 0 {
		b.sendSubtreeDelta(addUp, removeUp)
	}
	_ = link.Send(newControl(healReattachOK, b.rank, healReattachAck{Parent: b.rank, Ancestors: anc}))
}

// handleReattachOK is the orphan side: the adopter accepted. Install it
// as the parent (keeping the existing link on a rejoin), refresh the
// ancestor chain, and announce the move to the instance.
func (b *Broker) handleReattachOK(m *msg.Message) {
	var ack healReattachAck
	if err := m.Unmarshal(&ack); err != nil {
		return
	}
	h := b.heal
	h.mu.Lock()
	if !h.reattaching || m.Sender != h.pendingTo {
		h.mu.Unlock()
		return // stale ack from an abandoned attempt
	}
	link := h.pendingLink
	h.reattaching = false
	h.pendingTo = -1
	h.pendingLink = nil
	h.ancestors = append([]int32(nil), ack.Ancestors...)
	h.lastAck = b.clock.Now()
	h.ackInit = true
	h.reattaches++
	h.mu.Unlock()

	b.mu.Lock()
	old := b.parentRank
	oldLink := b.parent
	b.parentRank = ack.Parent
	if link != nil {
		// The abandoned old-parent link is left to the instance's link
		// tracker (closed at teardown); closing it here would sever a
		// still-live TCP connection mid-handshake on the other side.
		b.parent = link
	}
	b.mu.Unlock()

	// Tell the old parent we left, so it stops covering us immediately
	// instead of fanning requests at a moved subtree until the heartbeat
	// prune fires. Best-effort: if the goodbye is lost (or the old parent
	// is the one that died), the prune closes the window anyway.
	if link != nil && old != ack.Parent && oldLink != nil {
		_ = oldLink.Send(newControl(healDetachTopic, b.rank, struct{}{}))
	}

	_ = b.Publish(TopicReattach, ReattachEvent{
		Rank:      b.rank,
		OldParent: old,
		NewParent: ack.Parent,
		Ranks:     b.ownSubtreeRanks(),
		Rejoin:    link == nil,
	})
}

// handleDetach is the old-parent side of a move: the child reattached
// elsewhere, so drop it from the routing table and accounting now
// rather than waiting out the heartbeat staleness window — until then
// every whole-subtree fan-out would double-cover the moved ranks.
func (b *Broker) handleDetach(m *msg.Message) {
	s := m.Sender
	h := b.heal
	h.mu.Lock()
	delete(h.heard, s)
	h.mu.Unlock()
	removed := b.pruneChild(s)
	if len(removed) > 0 {
		b.sendSubtreeDelta(nil, removed)
	}
}

// handleSubtreeUpdate applies a child's membership delta (or full
// resync), keeping the per-child sets disjoint and forwarding only the
// net change toward root.
func (b *Broker) handleSubtreeUpdate(m *msg.Message) {
	var up healSubtree
	if err := m.Unmarshal(&up); err != nil {
		return
	}
	s := m.Sender
	b.mu.Lock()
	if _, ok := b.children[s]; !ok {
		b.mu.Unlock()
		return // not currently a child; its reattach will carry the state
	}
	b.materializeLocked()
	set := b.childSets[s]
	if set == nil {
		set = map[int32]bool{s: true}
		b.childSets[s] = set
	}
	var addUp, removeUp []int32
	if up.IsFull {
		newSet := make(map[int32]bool, len(up.Full)+1)
		for _, r := range up.Full {
			if r != b.rank {
				newSet[r] = true
			}
		}
		newSet[s] = true
		for r := range set {
			if !newSet[r] {
				removeUp = append(removeUp, r)
			}
		}
		ranks := make([]int32, 0, len(newSet))
		for r := range newSet {
			ranks = append(ranks, r)
		}
		sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
		for _, r := range ranks {
			if set[r] {
				continue
			}
			owned := false
			for c, os := range b.childSets {
				if c != s && os[r] {
					delete(os, r)
					owned = true
				}
			}
			if !owned {
				addUp = append(addUp, r)
			}
		}
		b.childSets[s] = newSet
	} else {
		for _, r := range up.Add {
			if r == b.rank || set[r] {
				continue
			}
			owned := false
			for c, os := range b.childSets {
				if c != s && os[r] {
					delete(os, r)
					owned = true
				}
			}
			set[r] = true
			if !owned {
				addUp = append(addUp, r)
			}
		}
		for _, r := range up.Remove {
			if r == s {
				continue
			}
			if set[r] {
				delete(set, r)
				removeUp = append(removeUp, r)
			}
		}
	}
	b.mu.Unlock()
	sort.Slice(removeUp, func(i, j int) bool { return removeUp[i] < removeUp[j] })
	if len(addUp)+len(removeUp) > 0 {
		b.sendSubtreeDelta(addUp, removeUp)
	}
}
