// Package reduce implements generic in-network reductions over the TBON
// — the mechanism Flux itself uses to keep telemetry gathers from
// overwhelming rank 0, applied to this reproduction's power plane.
//
// A module loaded on every broker registers a typed combiner under a
// topic: a Local function producing the rank's own contribution and a
// Merge function combining two partial aggregates. A reduction request
// then flows *down* the tree: each rank forwards the request to the
// children whose subtrees contain target ranks, computes its local
// contribution, merges its children's partial aggregates with it, and
// sends only the combined aggregate *up*. The payload crossing any
// single link — the root link above all — is one aggregate, so a
// cluster-wide gather costs O(fanout · aggregate) bytes at the root
// instead of the O(N · raw) of a flat rank-0 fan-out.
//
// Besides the body every rank sees, a request may carry rank bodies:
// one entry per rank that needs its own input. Each hop forwards a
// child only the entries of ranks in that child's subtree, so a rank
// receives and decodes its own entry and nothing of its siblings'.
//
// Every payload is decoded and encoded once per hop: a child's reply
// decodes straight into the typed aggregate, the merged aggregate is
// encoded once into this rank's reply, and the root hands its merged
// value to the caller without a JSON round trip.
//
// Failure degrades instead of propagating: a child that cannot answer
// within its share of the deadline (dead broker, unloaded module, hung
// handler) is counted as its whole subtree missing, and the aggregate
// comes back with Partial=true rather than the reduction failing. The
// per-child fan-in uses the broker's RPC futures, so one dead child
// costs one timeout, concurrently with its siblings.
package reduce

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/msg"
)

// Defaults for Config.
const (
	DefaultChildTimeout = 5 * time.Second
	DefaultHopMargin    = 250 * time.Millisecond
)

// Config tunes a reducer's failure handling.
type Config struct {
	// ChildTimeout bounds each child's subtree reduction when the request
	// carries no deadline of its own.
	ChildTimeout time.Duration
	// HopMargin is subtracted from the deadline budget passed downstream
	// at each hop, so a parent still has time to assemble a partial
	// aggregate after a grandchild's timeout fires below it.
	HopMargin time.Duration
}

func (c Config) withDefaults() Config {
	if c.ChildTimeout <= 0 {
		c.ChildTimeout = DefaultChildTimeout
	}
	if c.HopMargin <= 0 {
		c.HopMargin = DefaultHopMargin
	}
	return c
}

// Op is the typed combiner a module registers under a topic. P must
// round-trip through JSON: partial aggregates travel the tree as message
// payloads. An aggregate that cannot be encoded (a NaN float, say)
// counts every rank merged into it as missing.
type Op[P any] struct {
	// Local computes this rank's contribution from the request body,
	// which every rank sees, and own, this rank's entry of the request's
	// rank bodies (nil when the request carries none for it). Ops that
	// take no per-rank input ignore own.
	Local func(body, own json.RawMessage) (P, error)
	// Merge combines two partial aggregates built over disjoint rank
	// sets. It must be insensitive to combining order (the tree imposes
	// its own). Merge owns a: it may fold b into a's maps and slices and
	// return a, and the reducer uses a no more after a successful merge.
	// b it may only read. A failed merge must leave a as it was: the
	// reducer keeps a and counts b's ranks missing.
	Merge func(a, b P) (P, error)
}

// Result is a completed reduction.
type Result[P any] struct {
	// Aggregate is the merged value; meaningful only when Ranks > 0.
	Aggregate P
	// Ranks counts the ranks whose contributions are in the aggregate.
	Ranks int
	// Missing counts target ranks that did not contribute.
	Missing int
	// Partial is true when any target's contribution is missing.
	Partial bool
}

// Reducer executes tree reductions for one registered topic.
type Reducer[P any] struct {
	topic string
	op    Op[P]
	cfg   Config
	b     *broker.Broker
}

// Register installs a reduction topic on the module's broker. Every
// broker of the instance must register the same topic (load the module
// instance-wide) for the tree protocol to cover all ranks; the service
// is removed on module unload like any other registration.
func Register[P any](ctx *broker.Context, topic string, op Op[P], cfg Config) (*Reducer[P], error) {
	if op.Local == nil || op.Merge == nil {
		return nil, errors.New("reduce: Op needs both Local and Merge")
	}
	r := &Reducer[P]{topic: topic, op: op, cfg: cfg.withDefaults(), b: ctx.Broker()}
	if err := ctx.RegisterService(topic, r.handle); err != nil {
		return nil, err
	}
	return r, nil
}

// treeRequest is the reduction request flowing down the tree.
type treeRequest struct {
	// Targets are the ranks that must contribute; nil means every rank
	// in the receiving rank's subtree.
	Targets []int32 `json:"targets,omitempty"`
	// TimeoutSec is the remaining deadline budget for this subtree.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Hops counts how many tree levels this request has already
	// descended. The per-hop deadline margin is derived from it, so the
	// budget erosion tracks the path a request actually takes — after a
	// heal the tree can be deeper than the static formula depth, and a
	// depth-derived margin would expire spuriously.
	Hops int `json:"hops,omitempty"`
	// Body is the op-specific request every rank sees (e.g. a sample
	// window).
	Body json.RawMessage `json:"body,omitempty"`
	// RankBodies holds per-rank input, keyed by rank. A hop forwards
	// each child only the entries of ranks in its subtree and hands its
	// own entry to Local.
	RankBodies map[int32]json.RawMessage `json:"rank_bodies,omitempty"`
}

// treeResponse is the combined partial aggregate flowing up. The
// aggregate is embedded as P itself, so a reply decodes straight into
// the typed value; its bytes are the compact JSON of P, exactly what a
// raw-message envelope around json.Marshal(P) carries.
type treeResponse[P any] struct {
	Ranks     int  `json:"ranks"`
	Missing   int  `json:"missing,omitempty"`
	Partial   bool `json:"partial,omitempty"`
	Aggregate *P   `json:"aggregate,omitempty"`
}

// Reduce runs a reduction rooted at this broker's rank, covering targets
// (nil = every rank in this rank's subtree; from rank 0 that is the
// whole instance), with no rank bodies. See ReduceRanked.
func (r *Reducer[P]) Reduce(targets []int32, body any, timeout time.Duration) (Result[P], error) {
	return r.ReduceRanked(targets, body, nil, timeout)
}

// ReduceRanked runs a reduction rooted at this broker's rank, covering
// targets (nil = every rank in this rank's subtree). body reaches every
// contributing rank; rankBodies[x], when present, reaches rank x alone
// as Local's own argument. Entries for ranks no current child owns are
// dropped. A non-positive timeout selects Config.ChildTimeout. Targets
// outside this rank's subtree cannot be reached by downward routing and
// are reported in Missing.
//
// The merged aggregate comes back typed, without a JSON round trip;
// like every other hop, the root counts an aggregate that cannot be
// encoded as all of its ranks missing.
func (r *Reducer[P]) ReduceRanked(targets []int32, body any, rankBodies map[int32]json.RawMessage, timeout time.Duration) (Result[P], error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return Result[P]{}, fmt.Errorf("reduce: marshal body: %w", err)
	}
	if timeout <= 0 {
		timeout = r.cfg.ChildTimeout
	}
	// run sorts the targets in place; the caller's slice stays as given.
	tresp := r.run(treeRequest{Targets: slices.Clone(targets), TimeoutSec: timeout.Seconds(), Body: raw, RankBodies: rankBodies})
	out := Result[P]{Ranks: tresp.Ranks, Missing: tresp.Missing, Partial: tresp.Partial}
	if tresp.Aggregate != nil {
		if json.NewEncoder(io.Discard).Encode(tresp.Aggregate) != nil {
			return Result[P]{Missing: out.Missing + out.Ranks, Partial: true}, nil
		}
		out.Aggregate = *tresp.Aggregate
	}
	return out, nil
}

// handle serves the topic on every rank: run the subtree reduction and
// respond with the combined partial, encoded once.
func (r *Reducer[P]) handle(req *broker.Request) {
	var tr treeRequest
	if err := req.Msg.Unmarshal(&tr); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	out := r.run(tr)
	if req.Respond(out) != nil {
		// An aggregate that cannot be encoded loses every contribution
		// below this rank: report them missing rather than lie upward or
		// leave the parent waiting for a reply that never comes.
		_ = req.Respond(treeResponse[P]{Missing: out.Missing + out.Ranks, Partial: true})
	}
}

// childPart is one child's share of the reduction: the targets in its
// subtree, or all of it (everything == true) for an unscoped request,
// and the rank bodies of the ranks it owns.
type childPart struct {
	rank       int32
	targets    []int32
	everything bool
	bodies     map[int32]json.RawMessage
}

// expected returns how many contributions the child's share covers.
func (r *Reducer[P]) expected(part *childPart) int {
	if part.everything {
		return r.b.ChildSubtreeCount(part.rank)
	}
	return len(part.targets)
}

// partition splits the request among this rank and its direct children
// in one pass over the targets and one over the rank bodies, asking the
// broker which child currently owns each rank so the split follows the
// live topology (the closed-form tree until a heal mutates it). Parts
// come back in Children() order. tr.Targets must be sorted and free of
// duplicates. own is this rank's rank body; entries for ranks that are
// not targeted or that no child owns are dropped. outOfScope counts
// targets outside this rank's subtree (unreachable by downward routing).
func (r *Reducer[P]) partition(tr *treeRequest) (local bool, own json.RawMessage, parts []childPart, outOfScope int) {
	rank, size := r.b.Rank(), r.b.Size()
	children := r.b.Children()
	parts = make([]childPart, len(children))
	for i, c := range children {
		parts[i] = childPart{rank: c, everything: tr.Targets == nil}
	}
	local = tr.Targets == nil
	for _, t := range tr.Targets {
		if t < 0 || t >= size {
			continue
		}
		if t == rank {
			local = true
			continue
		}
		i, ok := r.owner(children, t)
		if !ok {
			outOfScope++
			continue
		}
		parts[i].targets = append(parts[i].targets, t)
	}
	for t, body := range tr.RankBodies {
		if tr.Targets != nil {
			if _, targeted := slices.BinarySearch(tr.Targets, t); !targeted {
				continue
			}
		}
		if t == rank {
			own = body
			continue
		}
		i, ok := r.owner(children, t)
		if !ok {
			continue
		}
		if parts[i].bodies == nil {
			parts[i].bodies = make(map[int32]json.RawMessage)
		}
		parts[i].bodies[t] = body
	}
	return local, own, parts, outOfScope
}

// owner returns the index in children (sorted) of the child whose
// subtree currently holds rank t.
func (r *Reducer[P]) owner(children []int32, t int32) (int, bool) {
	c, ok := r.b.OwningChild(t)
	if !ok {
		return 0, false
	}
	return slices.BinarySearch(children, c)
}

// hopBudget derives the deadline split for the next tree level from the
// hop count the request actually accumulated. The margin kept at this
// rank shrinks with depth (and never exceeds a quarter of the remaining
// budget), so the total erosion over any realistic path stays bounded
// and a tree one level deeper than the formula predicts — the post-heal
// case — still leaves every level a usable budget. The child's RPC is
// armed halfway into the margin: after the child's own subtree deadline
// would fire, before this rank's caller gives up on it.
func hopBudget(timeout, margin time.Duration, hops int) (childBudget, childWait time.Duration) {
	if hops < 0 {
		hops = 0
	}
	m := margin / time.Duration(1+hops)
	if m > timeout/4 {
		m = timeout / 4
	}
	childBudget = timeout - m
	childWait = childBudget + m/2
	return childBudget, childWait
}

// run reduces this rank's subtree for one request: fan the request out
// to the owning children, fold in the local contribution, merge the
// partials, and account every rank that could not contribute. It sorts
// tr.Targets in place and drops duplicates.
func (r *Reducer[P]) run(tr treeRequest) treeResponse[P] {
	if tr.Targets != nil {
		slices.Sort(tr.Targets)
		tr.Targets = slices.Compact(tr.Targets)
	}
	local, own, parts, outOfScope := r.partition(&tr)

	timeout := r.cfg.ChildTimeout
	if tr.TimeoutSec > 0 {
		timeout = time.Duration(tr.TimeoutSec * float64(time.Second))
	}
	// Leave this rank headroom to assemble a partial answer after a
	// timeout fires in a child's subtree, eroding the budget by the hop
	// count the request actually took rather than a fixed slice.
	childBudget, childWait := hopBudget(timeout, r.cfg.HopMargin, tr.Hops)

	// Fan out before any fan-in, so child subtrees reduce concurrently
	// and a dead child costs one timeout total, not one per child.
	type pendingChild struct {
		part   *childPart
		future *broker.Future
	}
	pending := make([]pendingChild, 0, len(parts))
	for i := range parts {
		part := &parts[i]
		if !part.everything && len(part.targets) == 0 {
			continue
		}
		sub := treeRequest{
			Targets:    part.targets,
			TimeoutSec: childBudget.Seconds(),
			Hops:       tr.Hops + 1,
			Body:       tr.Body,
			RankBodies: part.bodies,
		}
		pending = append(pending, pendingChild{
			part:   part,
			future: r.b.RPCWithTimeout(part.rank, r.topic, sub, childWait),
		})
	}

	out := treeResponse[P]{Missing: outOfScope}
	// A whole-instance sweep from the root must account for subtrees
	// currently detached mid-heal: nobody owns their ranks, so no child
	// part covers them. On a pristine topology the gap is zero.
	if tr.Targets == nil && r.b.Rank() == 0 {
		if gap := int(r.b.Size()) - r.b.SubtreeCount(); gap > 0 {
			out.Missing += gap
		}
	}
	var agg P
	if local {
		p, err := r.op.Local(tr.Body, own)
		if err != nil {
			out.Missing++
		} else {
			agg = p
			out.Ranks = 1
		}
	}
	for _, pc := range pending {
		resp, err := pc.future.Wait(childWait)
		if err != nil {
			// Dead or deaf subtree: every rank it covers is missing.
			out.Missing += r.expected(pc.part)
			continue
		}
		var cr treeResponse[P]
		if err := resp.Unmarshal(&cr); err != nil {
			out.Missing += r.expected(pc.part)
			continue
		}
		out.Missing += cr.Missing
		if cr.Ranks == 0 {
			continue
		}
		if cr.Aggregate == nil {
			out.Missing += cr.Ranks
			continue
		}
		if out.Ranks == 0 {
			agg = *cr.Aggregate
		} else {
			merged, err := r.op.Merge(agg, *cr.Aggregate)
			if err != nil {
				out.Missing += cr.Ranks
				continue
			}
			agg = merged
		}
		out.Ranks += cr.Ranks
	}
	out.Partial = out.Missing > 0
	if out.Ranks > 0 {
		out.Aggregate = &agg
	}
	return out
}

// CountOp is a ready-made combiner counting contributing ranks — the
// "are you all there" liveness sweep, and the simplest demonstration of
// the plane.
func CountOp() Op[int] {
	return Op[int]{
		Local: func(_, _ json.RawMessage) (int, error) { return 1, nil },
		Merge: func(a, b int) (int, error) { return a + b, nil },
	}
}
