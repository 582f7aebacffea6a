package chaos

import (
	"fmt"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/reduce"
	"fluxpower/internal/query"
)

// LivenessTopic is the reduction topic of the Liveness module.
const LivenessTopic = "chaos.liveness"

// Liveness is a tiny module loaded on every broker that registers a
// CountOp reduction: Sweep from the rank-0 instance counts the ranks
// that answered, and — because the reduce plane accounts every dead
// subtree in Missing — makes conservation checkable:
// Ranks + Missing == instance size, always.
type Liveness struct {
	cfg     reduce.Config
	reducer *reduce.Reducer[int]
}

// NewLiveness builds a liveness module; timeout bounds each subtree's
// share of a sweep.
func NewLiveness(timeout time.Duration) *Liveness {
	return &Liveness{cfg: reduce.Config{ChildTimeout: timeout, HopMargin: timeout / 8}}
}

// Name implements broker.Module.
func (l *Liveness) Name() string { return "chaos-liveness" }

// Init implements broker.Module.
func (l *Liveness) Init(ctx *broker.Context) error {
	r, err := reduce.Register(ctx, LivenessTopic, reduce.CountOp(), l.cfg)
	if err != nil {
		return err
	}
	l.reducer = r
	return nil
}

// Shutdown implements broker.Module.
func (l *Liveness) Shutdown() error { return nil }

// Sweep counts reachable ranks below this module's broker (load it on
// rank 0 and pass nil targets to sweep the whole instance).
func (l *Liveness) Sweep(targets []int32, timeout time.Duration) (reduce.Result[int], error) {
	return l.reducer.Reduce(targets, nil, timeout)
}

// Violation is one broken invariant.
type Violation struct {
	// Invariant names the property ("pending-rpcs", "matchtag-accounting",
	// "reduce-conservation", "partial-flag", "liveness-missing",
	// "heal-subtree-count", "heal-topology",
	// "archive-monotonic", "status-unreachable", "status-pending",
	// "dead-rank-ack", "store-accounting",
	// "query-conservation", "query-partial-flag", "query-missing",
	// "probe-failed").
	Invariant string
	// Rank localizes the violation; -1 when instance-wide.
	Rank   int32
	Detail string
}

func (v Violation) String() string {
	if v.Rank >= 0 {
		return fmt.Sprintf("%s@rank%d: %s", v.Invariant, v.Rank, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// CheckConfig selects which invariants Check asserts.
type CheckConfig struct {
	// Brokers are the instance's brokers in rank order. Required.
	Brokers []*broker.Broker
	// Injector, when set, contributes plan knowledge (crash windows) to
	// the dead-rank checks.
	Injector *Injector
	// Liveness, when set, must be the rank-0 instance of the module; the
	// conservation invariant sweeps through it.
	Liveness *Liveness
	// Monitor enables the powermon checks (archive monotonicity via
	// power-monitor.collect, health via power-monitor.status). Requires
	// the power-monitor module loaded instance-wide.
	Monitor bool
	// Manager enables the powermgr check (no cap-limit push acknowledged
	// by a crashed rank, read from power-manager.acks). Requires
	// power-manager loaded on rank 0 and an Injector for the crash
	// windows.
	Manager bool
	// Store enables the durable-store accounting check: every rank's
	// tsdb health must balance (durable ≤ appended, unsynced is exactly
	// the difference, and durable data occupies disk). Requires the
	// power-monitor module configured with a StoreDir.
	Store bool
	// Query enables the query-engine conservation check: a cluster-wide
	// evaluation through power-query.eval must account every rank
	// (covered + missing == size) and flag Partial exactly when a
	// subtree is missing. Requires the power-query module loaded
	// instance-wide over a power monitor.
	Query bool
	// Heal enables the self-healing convergence invariants: after faults
	// clear, the root's subtree accounting must cover every rank not
	// permanently crashed, and the parent/child topology must be a
	// consistent tree (each attached rank is the child of exactly the
	// broker it calls its parent). Requires brokers built with a
	// broker.HealConfig.
	Heal bool
	// HealExpectMissing is the number of permanently-dead ranks the heal
	// invariant should tolerate as absent from the root's subtree
	// (typically the count of EndSec==0 crash rules still in force).
	HealExpectMissing int
	// RPCTimeout bounds each probe RPC the checker itself issues
	// (default 3s).
	RPCTimeout time.Duration
	// AckMarginSec is slack around crash windows when judging ack
	// timestamps, absorbing delivery latency at the window edges
	// (default 0.05s).
	AckMarginSec float64
	// ExpectAllReachable asserts that every rank answers probes — set it
	// after Disarm + quiesce, when no fault should linger.
	ExpectAllReachable bool
}

func (c CheckConfig) withDefaults() CheckConfig {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 3 * time.Second
	}
	if c.AckMarginSec <= 0 {
		c.AckMarginSec = 0.05
	}
	return c
}

// checkQueryExpr is the expression the query conservation check evaluates.
const checkQueryExpr = "count(max_over_time(node_power_watts[30s]))"

// Check asserts the chaos invariants and returns every violation found
// (empty = all hold). Call it after Disarm and a quiesce interval long
// enough for outstanding RPC deadlines to fire.
//
// The matchtag invariants read broker state directly and are snapshotted
// first, so the checker's own probe RPCs cannot disturb them.
func Check(cfg CheckConfig) []Violation {
	cfg = cfg.withDefaults()
	var vs []Violation

	// 1. No leaked matchtags / pending futures anywhere.
	for _, b := range cfg.Brokers {
		h := b.Health()
		if h.PendingRPCs != 0 {
			vs = append(vs, Violation{"pending-rpcs", h.Rank,
				fmt.Sprintf("%d pending RPC futures at quiescence", h.PendingRPCs)})
		}
		if h.Stats.TagsReclaimed != h.Stats.RPCsIssued {
			vs = append(vs, Violation{"matchtag-accounting", h.Rank,
				fmt.Sprintf("issued %d RPCs but reclaimed %d matchtags",
					h.Stats.RPCsIssued, h.Stats.TagsReclaimed)})
		}
	}

	if len(cfg.Brokers) == 0 {
		return vs
	}
	root := cfg.Brokers[0]
	size := int(root.Size())
	nowSec := root.Clock().Now().Seconds()

	// 2. Reduce conservation: Covered + Missing == SubtreeSize at root,
	// Partial iff Missing > 0.
	if cfg.Liveness != nil {
		res, err := cfg.Liveness.Sweep(nil, cfg.RPCTimeout)
		switch {
		case err != nil:
			vs = append(vs, Violation{"probe-failed", -1, fmt.Sprintf("liveness sweep: %v", err)})
		default:
			if res.Ranks+res.Missing != size {
				vs = append(vs, Violation{"reduce-conservation", -1,
					fmt.Sprintf("covered %d + missing %d != size %d", res.Ranks, res.Missing, size)})
			}
			if res.Partial != (res.Missing > 0) {
				vs = append(vs, Violation{"partial-flag", -1,
					fmt.Sprintf("partial=%v with missing=%d", res.Partial, res.Missing)})
			}
			if cfg.ExpectAllReachable && res.Missing > 0 {
				vs = append(vs, Violation{"liveness-missing", -1,
					fmt.Sprintf("%d ranks unreachable after quiesce", res.Missing)})
			}
		}
	}

	if cfg.Heal {
		vs = append(vs, checkHeal(cfg, root, size)...)
	}
	if cfg.Query {
		vs = append(vs, checkQuery(cfg, root, size)...)
	}
	if cfg.Monitor {
		vs = append(vs, checkMonitor(cfg, root, nowSec)...)
	}
	if cfg.Store {
		vs = append(vs, checkStore(cfg, root)...)
	}
	if cfg.Manager && cfg.Injector != nil {
		vs = append(vs, checkManagerAcks(cfg, root, nowSec)...)
	}
	return vs
}

// checkQuery asserts the query engine's conservation contract: one
// cluster-wide evaluation, and every rank is either covered by the
// merged partial or counted missing — a dead subtree degrades the
// answer, it never silently shrinks the denominator.
func checkQuery(cfg CheckConfig, root *broker.Broker, size int) []Violation {
	var vs []Violation
	resp, err := root.CallTimeout(msg.NodeAny, query.EvalService,
		query.EvalRequest{Expr: checkQueryExpr}, cfg.RPCTimeout)
	if err != nil {
		vs = append(vs, Violation{"probe-failed", -1, fmt.Sprintf("query eval: %v", err)})
		return vs
	}
	var res query.Result
	if err := resp.Unmarshal(&res); err != nil {
		vs = append(vs, Violation{"probe-failed", -1, fmt.Sprintf("query decode: %v", err)})
		return vs
	}
	if res.RanksCovered+res.RanksMissing != size {
		vs = append(vs, Violation{"query-conservation", -1,
			fmt.Sprintf("covered %d + missing %d != size %d", res.RanksCovered, res.RanksMissing, size)})
	}
	if res.Partial != (res.RanksMissing > 0) {
		vs = append(vs, Violation{"query-partial-flag", -1,
			fmt.Sprintf("partial=%v with missing=%d", res.Partial, res.RanksMissing)})
	}
	if cfg.ExpectAllReachable && res.RanksMissing > 0 {
		vs = append(vs, Violation{"query-missing", -1,
			fmt.Sprintf("%d ranks unreachable after quiesce", res.RanksMissing)})
	}
	return vs
}

// checkHeal asserts that the self-healing topology converged: no subtree
// is permanently missing beyond the expected dead ranks, and the
// parent/child links brokers hold agree with each other — every attached
// rank is the child of exactly one broker, the one it calls its parent.
func checkHeal(cfg CheckConfig, root *broker.Broker, size int) []Violation {
	var vs []Violation

	// Zero permanently-missing subtrees: the root's membership accounting
	// covers every rank except those still crashed for good.
	want := size - cfg.HealExpectMissing
	if got := root.SubtreeCount(); got != want {
		vs = append(vs, Violation{"heal-subtree-count", -1,
			fmt.Sprintf("root covers %d of %d ranks (expected %d permanently dead)",
				got, size, cfg.HealExpectMissing)})
	}

	// Topology consistency: scan every broker's child list once, then
	// cross-check against each rank's own notion of its parent.
	owners := make(map[int32][]int32, size)
	for _, b := range cfg.Brokers {
		for _, c := range b.Children() {
			owners[c] = append(owners[c], b.Rank())
		}
	}
	for rank := 1; rank < size; rank++ {
		r := int32(rank)
		own := owners[r]
		switch {
		case len(own) > 1:
			vs = append(vs, Violation{"heal-topology", r,
				fmt.Sprintf("claimed as child by %v simultaneously", own)})
		case len(own) == 1:
			if p := cfg.Brokers[r].CurrentParent(); p != own[0] {
				vs = append(vs, Violation{"heal-topology", r,
					fmt.Sprintf("attached under %d but believes parent is %d", own[0], p)})
			}
		case cfg.HealExpectMissing == 0:
			// Zero owners overlaps the subtree-count gap, but naming the
			// detached rank makes the repro line actionable.
			vs = append(vs, Violation{"heal-topology", r, "no broker claims this rank as a child"})
		}
	}
	return vs
}

// checkStore asserts the durable store's sample accounting on every
// reachable rank: the books must balance at quiescence no matter which
// faults ran.
func checkStore(cfg CheckConfig, root *broker.Broker) []Violation {
	var vs []Violation
	for rank := int32(0); rank < root.Size(); rank++ {
		resp, err := root.CallTimeout(rank, "power-monitor.store-status", nil, cfg.RPCTimeout)
		if err != nil {
			if cfg.ExpectAllReachable {
				vs = append(vs, Violation{"probe-failed", rank, fmt.Sprintf("store-status: %v", err)})
			}
			continue
		}
		var ss powermon.StoreStatus
		if err := resp.Unmarshal(&ss); err != nil {
			vs = append(vs, Violation{"probe-failed", rank, fmt.Sprintf("store-status decode: %v", err)})
			continue
		}
		if !ss.Enabled {
			vs = append(vs, Violation{"store-accounting", rank, "store check enabled but rank has no store"})
			continue
		}
		h := ss.Health
		if h.DurableSamples > h.AppendedSamples {
			vs = append(vs, Violation{"store-accounting", rank,
				fmt.Sprintf("durable %d exceeds appended %d", h.DurableSamples, h.AppendedSamples)})
		}
		if h.UnsyncedSamples != h.AppendedSamples-h.DurableSamples {
			vs = append(vs, Violation{"store-accounting", rank,
				fmt.Sprintf("unsynced %d != appended %d - durable %d",
					h.UnsyncedSamples, h.AppendedSamples, h.DurableSamples)})
		}
		if h.DurableSamples > 0 && h.BytesOnDisk <= 0 {
			vs = append(vs, Violation{"store-accounting", rank,
				fmt.Sprintf("%d durable samples but no bytes on disk", h.DurableSamples)})
		}
	}
	return vs
}

// checkMonitor asserts powermon archive monotonicity per rank and the
// consistency of the power-monitor.status health fan-out.
func checkMonitor(cfg CheckConfig, root *broker.Broker, nowSec float64) []Violation {
	var vs []Violation
	size := root.Size()

	// Archive monotonicity: every rank's raw ring, in timestamp order,
	// never regressing, never from the future.
	for rank := int32(0); rank < size; rank++ {
		resp, err := root.CallTimeout(rank, "power-monitor.collect",
			map[string]float64{"start_sec": 0, "end_sec": nowSec}, cfg.RPCTimeout)
		if err != nil {
			if cfg.ExpectAllReachable {
				vs = append(vs, Violation{"probe-failed", rank, fmt.Sprintf("collect: %v", err)})
			}
			continue
		}
		var ns powermon.NodeSamples
		if err := resp.Unmarshal(&ns); err != nil {
			vs = append(vs, Violation{"probe-failed", rank, fmt.Sprintf("collect decode: %v", err)})
			continue
		}
		prev := -1.0
		for i, s := range ns.Samples {
			if s.Timestamp < prev {
				vs = append(vs, Violation{"archive-monotonic", rank,
					fmt.Sprintf("sample %d at t=%.3f after t=%.3f", i, s.Timestamp, prev)})
				break
			}
			if s.Timestamp > nowSec+1 {
				vs = append(vs, Violation{"archive-monotonic", rank,
					fmt.Sprintf("sample %d at t=%.3f is in the future (now %.3f)", i, s.Timestamp, nowSec)})
				break
			}
			prev = s.Timestamp
		}
	}

	// Health fan-out: the satellite counters surfaced through
	// power-monitor.status must tell the same no-leak story.
	resp, err := root.CallTimeout(msg.NodeAny, "power-monitor.status", nil, cfg.RPCTimeout)
	if err != nil {
		vs = append(vs, Violation{"probe-failed", -1, fmt.Sprintf("power-monitor.status: %v", err)})
		return vs
	}
	var st powermon.InstanceStatus
	if err := resp.Unmarshal(&st); err != nil {
		vs = append(vs, Violation{"probe-failed", -1, fmt.Sprintf("status decode: %v", err)})
		return vs
	}
	if cfg.ExpectAllReachable {
		if len(st.Unreachable) > 0 {
			vs = append(vs, Violation{"status-unreachable", -1,
				fmt.Sprintf("ranks %v unreachable after quiesce", st.Unreachable)})
		}
		if len(st.Ranks) != int(size) {
			vs = append(vs, Violation{"status-unreachable", -1,
				fmt.Sprintf("status reports %d of %d ranks", len(st.Ranks), size)})
		}
	}
	for _, h := range st.Ranks {
		// Rank 0 is skipped: while the status fan-out is in flight, its own
		// probe futures are legitimately pending there. The direct snapshot
		// in Check's first pass already asserts rank 0 exactly.
		if h.Rank == 0 {
			continue
		}
		if h.PendingRPCs > 0 {
			vs = append(vs, Violation{"status-pending", h.Rank,
				fmt.Sprintf("health fan-out sees %d pending RPCs", h.PendingRPCs)})
		}
	}
	return vs
}

// checkManagerAcks asserts that no cap-limit push was acknowledged by a
// rank while the plan had it crashed. It audits the ack log that
// power-manager.acks serves, each rank's newest acks: Check runs after
// Disarm and a quiesce, so those cover the soak's crash windows.
func checkManagerAcks(cfg CheckConfig, root *broker.Broker, nowSec float64) []Violation {
	var vs []Violation
	resp, err := root.CallTimeout(msg.NodeAny, "power-manager.acks", nil, cfg.RPCTimeout)
	if err != nil {
		vs = append(vs, Violation{"probe-failed", -1, fmt.Sprintf("power-manager.acks: %v", err)})
		return vs
	}
	var body struct {
		PushAckSec map[int32][]float64 `json:"push_ack_sec"`
	}
	if err := resp.Unmarshal(&body); err != nil {
		vs = append(vs, Violation{"probe-failed", -1, fmt.Sprintf("manager acks decode: %v", err)})
		return vs
	}
	disarmSec := cfg.Injector.DisarmedAt()
	for rank, times := range body.PushAckSec {
		for _, w := range cfg.Injector.CrashWindows(rank) {
			lo := w.StartSec + cfg.AckMarginSec
			end := w.EndSec
			if end <= 0 {
				end = nowSec + 1
			}
			// Disarming heals every fault, so a window never outlives it: an
			// ack from a revived rank after Disarm is legitimate.
			if disarmSec > 0 && disarmSec < end {
				end = disarmSec
			}
			hi := end - cfg.AckMarginSec
			for _, t := range times {
				if t > lo && t < hi {
					vs = append(vs, Violation{"dead-rank-ack", rank,
						fmt.Sprintf("setlimit acked at t=%.3f inside crash window [%.3f,%.3f]",
							t, w.StartSec, w.EndSec)})
				}
			}
		}
	}
	return vs
}
