// Package powermon implements flux-power-monitor, the paper's job-level
// power telemetry module (§III-A).
//
// The design is deliberately *stateless* with respect to jobs: every node
// runs a node-agent that samples Variorum telemetry into a fixed-size
// circular buffer on a timer, with no idea whether a job is running. Only
// when an external client asks for a specific job's power does the
// root-agent (rank 0) look up the job's nodes and time window from the
// job manager and gather the matching samples from each node-agent over
// the TBON. Keeping the hot path free of job tracking is what buys the
// paper's 0.4% average overhead.
//
// Defaults follow the paper: one sample every 2 seconds, a ring bounded at
// 100,000 samples per node. The paper's ring holds Variorum JSON (~43.4 MB
// full); this one keeps each sample as flat numbers, 100 B for a Lassen
// sample, so a full ring is ~10 MB. Even that is a ceiling, not a
// footprint: the ring and the archive tiers below grow to their bounds as
// samples arrive, so an agent holds what it has sampled and no more. The
// client receives a CSV with one row per (node, sample) and a column
// stating whether the buffer still held the job's full window or only a
// partial one.
//
// Beyond the paper's flat gather, each node agent also maintains
// downsampled archive tiers (mean/max/min per component per bucket), and
// the root-agent offers an *aggregate* query mode whose per-job summary
// statistics are computed in-network: partial aggregates merge at every
// TBON rank (internal/flux/reduce), so only one aggregate-sized payload
// crosses the root link no matter how many nodes the job spans. Raw-CSV
// mode remains for full-fidelity extraction.
//
// Which storage answers a node's window — the raw ring, an archive
// tier, the durable store's blocks or tier logs — is decided in one
// place, the query engine's planner (internal/query). The collect asks
// it for raw samples, the aggregate for the cheapest resolution that
// covers the window, the same choice the engine's pushdown makes. A
// store that fails to read degrades each of them to the ring, flagged
// incomplete.
package powermon

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/reduce"
	"fluxpower/internal/hw"
	"fluxpower/internal/query"
	"fluxpower/internal/simtime"
	"fluxpower/internal/tsdb"
	"fluxpower/internal/variorum"
)

// ModuleName is the monitor's registered module/service name.
const ModuleName = "power-monitor"

// ReduceTopic is the in-network reduction topic for aggregate queries.
const ReduceTopic = "power-monitor.reduce.window"

// SampleEvent is the topic node-agents publish each sensor read on when
// Config.PublishSamples is set. Events funnel to rank 0 and flood the
// instance, so live subscribers (the powerapi gateway's SSE streams)
// see every node's samples at the root without polling. Off by default:
// flooding every sample is O(size²) messages per interval, a price only
// deployments that want live streaming should pay.
const SampleEvent = "power-monitor.sample"

// SamplePayload is the body of a SampleEvent.
type SamplePayload struct {
	Rank     int32              `json:"rank"`
	Hostname string             `json:"hostname"`
	Sample   variorum.NodePower `json:"sample"`
}

// Defaults from §III-A.
const (
	DefaultSampleInterval = 2 * time.Second
	DefaultBufferSamples  = 100_000
	DefaultCollectTimeout = 5 * time.Second
)

// Config tunes the node agent. The sampling knobs are user-configurable
// in the paper's module too.
type Config struct {
	SampleInterval time.Duration
	BufferSamples  int
	// CollectTimeout bounds each per-node collect RPC during a root-agent
	// query (and the per-subtree deadline of in-network reductions). A
	// node that cannot answer in time contributes an explicit incomplete
	// record instead of stalling the whole query.
	CollectTimeout time.Duration
	// Tiers configures the downsampled archive; nil selects DefaultTiers.
	// An explicit empty, non-nil slice disables tiering.
	Tiers []TierSpec
	// MaxRawPoints bounds how many raw samples an aggregate or query
	// window may span before the planner answers it from a downsampled
	// tier (default DefaultMaxRawPoints).
	MaxRawPoints int
	// PublishSamples makes every node-agent publish each sensor read as a
	// SampleEvent for live subscribers (SSE streaming). Default off; see
	// SampleEvent for the cost.
	PublishSamples bool

	// StoreDir, when set, gives every node-agent a durable tsdb store
	// under StoreDir/rank-<rank>: samples spill to a crash-safe WAL plus
	// compressed blocks, the archive transparently recovers from it on
	// restart, and windows older than the raw ring answer from it.
	// Empty (the default) keeps the module memory-only, as in the paper.
	StoreDir string
	// Store tunes the tsdb store (zero value = tsdb defaults).
	Store tsdb.Config
	// StoreSyncInterval is the store's maintenance cadence — fsync,
	// compaction, GC (default 10 s). The un-synced tail a crash can lose
	// is bounded by this and tsdb.Config.SyncEvery.
	StoreSyncInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.SampleInterval <= 0 {
		c.SampleInterval = DefaultSampleInterval
	}
	if c.BufferSamples <= 0 {
		c.BufferSamples = DefaultBufferSamples
	}
	if c.CollectTimeout <= 0 {
		c.CollectTimeout = DefaultCollectTimeout
	}
	if c.Tiers == nil {
		c.Tiers = DefaultTiers()
	}
	if c.MaxRawPoints <= 0 {
		c.MaxRawPoints = DefaultMaxRawPoints
	}
	if c.StoreSyncInterval <= 0 {
		c.StoreSyncInterval = DefaultStoreSyncInterval
	}
	return c
}

// DefaultStoreSyncInterval is the default store maintenance cadence.
const DefaultStoreSyncInterval = 10 * time.Second

// Module is one node's flux-power-monitor instance. Loaded on every
// broker; the rank-0 instance additionally plays root-agent.
//
// The mutex exists for live mode, where the sampling timer and the TBON
// message handlers run on different goroutines; in the deterministic
// simulation it is uncontended.
type Module struct {
	cfg Config
	ctx *broker.Context

	reducer *reduce.Reducer[AggPartial]

	mu   sync.Mutex
	arch *archive
	// samples counts sensor reads, for overhead accounting in benchmarks.
	samples uint64
	// reattaches counts topology moves that included this rank. The
	// archive and store are node-local, so a move needs no state handoff
	// — the counter is operational visibility, and each move triggers a
	// store sync so the durable tail is hardened right after a fault.
	reattaches uint64
	// store is the durable spill target (nil when StoreDir is unset). It
	// has its own internal lock; it is written under mu only to keep the
	// archive and the store observing samples in the same order.
	store *tsdb.Store
	// storeSources labels the store's tier-log reads by period, built
	// once when the store opens.
	storeSources map[float64]string
	// scratch holds the sample being recorded when there is no store
	// (see sample).
	scratch []float64
}

// New creates a monitor module.
func New(cfg Config) *Module {
	cfg = cfg.withDefaults()
	return &Module{
		cfg:  cfg,
		arch: newArchive(cfg.BufferSamples, cfg.Tiers),
	}
}

// Name implements broker.Module.
func (m *Module) Name() string { return ModuleName }

// Shutdown implements broker.Module: cleanly closes the durable store
// (a no-op after CrashStore, so chaos teardown stays crash-faithful).
func (m *Module) Shutdown() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return nil
	}
	return m.store.Close()
}

// StoreHealth returns the durable store's health snapshot; ok is false
// when the module runs memory-only.
func (m *Module) StoreHealth() (tsdb.Health, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return tsdb.Health{}, false
	}
	return m.store.Health(), true
}

// CrashStore simulates an unclean node stop for chaos and recovery
// tests: the store drops its un-synced tail and closes, exactly as a
// power loss would. The module keeps sampling into memory afterwards.
func (m *Module) CrashStore() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store != nil {
		m.store.Crash()
	}
}

// Init implements broker.Module: starts the sampling loop and registers
// the node-agent collect service and the in-network reduction topic; on
// rank 0 also the root-agent query service.
func (m *Module) Init(ctx *broker.Context) error {
	m.ctx = ctx
	node, ok := ctx.Local().(*hw.Node)
	if !ok {
		return fmt.Errorf("powermon: rank %d broker has no hardware node attached", ctx.Rank())
	}
	if m.cfg.StoreDir != "" {
		// Open (or crash-recover) the durable store and seed the archive
		// from it before the first sample lands.
		dir := filepath.Join(m.cfg.StoreDir, fmt.Sprintf("rank-%04d", ctx.Rank()))
		st, err := tsdb.Open(dir, m.cfg.Store)
		if err != nil {
			return fmt.Errorf("powermon: rank %d store: %w", ctx.Rank(), err)
		}
		m.store = st
		m.storeSources = make(map[float64]string)
		for _, period := range st.TierPeriods() {
			m.storeSources[period] = query.TierSource(period, true)
		}
		if err := m.recoverFromStore(); err != nil {
			return fmt.Errorf("powermon: rank %d store recovery: %w", ctx.Rank(), err)
		}
		if _, err := ctx.Every(m.cfg.StoreSyncInterval, func(now simtime.Time) {
			m.mu.Lock()
			if m.store != nil {
				_ = m.store.Maintain(now.Seconds())
			}
			m.mu.Unlock()
		}); err != nil {
			return err
		}
	}
	if _, err := ctx.Every(m.cfg.SampleInterval, func(now simtime.Time) { m.sample(node, now) }); err != nil {
		return err
	}
	if err := ctx.RegisterService(query.FetchService, m.handleCollect); err != nil {
		return err
	}
	if err := ctx.RegisterService("power-monitor.stats", m.handleStats); err != nil {
		return err
	}
	if err := ctx.RegisterService("power-monitor.store-status", m.handleStoreStatus); err != nil {
		return err
	}
	var err error
	m.reducer, err = reduce.Register(ctx, ReduceTopic, reduce.Op[AggPartial]{
		Local: m.localWindowAgg,
		Merge: mergeAggPartials,
	}, reduce.Config{ChildTimeout: m.cfg.CollectTimeout})
	if err != nil {
		return err
	}
	if ctx.Rank() == 0 {
		if err := ctx.RegisterService("power-monitor.query", m.handleQuery); err != nil {
			return err
		}
		if err := ctx.RegisterService("power-monitor.status", m.handleStatus); err != nil {
			return err
		}
	}
	// Telemetry is node-local by design — a topology move needs no state
	// handoff. But a reattach usually follows a fault, so when our rank is
	// part of a moved subtree, fsync the durable tail immediately instead
	// of waiting out the maintenance interval, and count the move for the
	// stats surface.
	ctx.Subscribe(broker.TopicReattach, func(ev *msg.Message) {
		var re broker.ReattachEvent
		if err := ev.Unmarshal(&re); err != nil {
			return
		}
		moved := false
		for _, r := range re.Ranks {
			if r == ctx.Rank() {
				moved = true
				break
			}
		}
		if !moved {
			return
		}
		now := ctx.Clock().Now().Seconds()
		m.mu.Lock()
		m.reattaches++
		if m.store != nil {
			_ = m.store.Maintain(now)
		}
		m.mu.Unlock()
	})
	return nil
}

// sample reads the node's sensors once and records the reading in the
// archive, the durable store if there is one, and a published event if
// PublishSamples is set. Only the store keeps a sample's slices (its
// unsealed head holds them): the archive copies the values and the
// event is marshalled at once. So without a store the read goes into
// the module's scratch buffer and a sample allocates nothing. The
// sampling timer is the buffer's only user, and its ticks never overlap.
func (m *Module) sample(node *hw.Node, now simtime.Time) {
	var p variorum.NodePower
	if m.store == nil {
		p = variorum.GetNodePowerInto(node, now, &m.scratch)
	} else {
		p = variorum.GetNodePower(node, now)
	}
	m.mu.Lock()
	m.arch.push(p)
	m.samples++
	if m.store != nil {
		// Same critical section as the archive push, so store and ring
		// observe samples in the same order; errors after a simulated
		// crash are expected and deliberately ignored.
		_ = m.store.Append(p)
	}
	m.mu.Unlock()
	// Publish outside the lock: event delivery is synchronous in the
	// simulation and subscribers must not observe the module mid-push.
	if m.cfg.PublishSamples {
		_ = m.ctx.Publish(SampleEvent, SamplePayload{
			Rank:     m.ctx.Rank(),
			Hostname: node.Name(),
			Sample:   p,
		})
	}
}

// recoverFromStore seeds the in-memory archive from the durable store:
// full raw history (the ring keeps the newest capacity-worth), the
// store's GC loss watermark, and every persisted tier bucket.
func (m *Module) recoverFromStore() error {
	all, err := m.store.All()
	if err != nil {
		return err
	}
	tiers := make(map[float64][]variorum.Bucket)
	for _, t := range m.arch.tiers {
		tiers[t.fold.PeriodSec] = m.store.TierRecords(t.fold.PeriodSec)
	}
	m.arch.restore(all, m.store.LostBeforeSec(), tiers)
	return nil
}

// StoreStatus is one rank's durable-store health, served by the
// per-rank power-monitor.store-status service.
type StoreStatus struct {
	Rank    int32       `json:"rank"`
	Enabled bool        `json:"enabled"`
	Health  tsdb.Health `json:"health,omitempty"`
}

// rankStatus is a rank's whole status reply: its store's health and
// its broker's, so the root-agent's status costs one RPC per rank.
type rankStatus struct {
	StoreStatus
	Broker broker.Health `json:"broker"`
}

func (m *Module) handleStoreStatus(req *broker.Request) {
	out := rankStatus{StoreStatus: StoreStatus{Rank: m.ctx.Rank()}, Broker: m.ctx.Broker().Health()}
	m.mu.Lock()
	if m.store != nil {
		out.Enabled = true
		out.Health = m.store.Health()
	}
	m.mu.Unlock()
	_ = req.Respond(out)
}

// InstanceStatus is the root-agent's instance-wide health report: one
// broker.Health snapshot per reachable rank, the ranks that could not
// answer within the collect timeout, and (when the durable store is
// enabled) every rank's store health. The chaos invariant checker
// asserts over it; operators use it to spot leaking matchtags, dark
// subtrees, or a store falling behind on fsync.
type InstanceStatus struct {
	Size        int32           `json:"size"`
	Ranks       []broker.Health `json:"ranks"`
	Unreachable []int32         `json:"unreachable,omitempty"`
	Stores      []StoreStatus   `json:"stores,omitempty"`
}

// handleStatus (rank 0 only) gathers every rank's status reply, so a
// dead subtree costs one CollectTimeout, not one per rank.
func (m *Module) handleStatus(req *broker.Request) {
	size := m.ctx.Size()
	ranks := make([]int32, size)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	out := InstanceStatus{Size: size}
	m.ctx.Broker().Gather(ranks, "power-monitor.store-status", nil, m.cfg.CollectTimeout, func(rank int32, resp *msg.Message, err error) {
		var rs rankStatus
		if err != nil || resp.Unmarshal(&rs) != nil {
			out.Unreachable = append(out.Unreachable, rank)
			return
		}
		out.Ranks = append(out.Ranks, rs.Broker)
		if rs.Enabled {
			out.Stores = append(out.Stores, rs.StoreStatus)
		}
	})
	_ = req.Respond(out)
}

// Samples returns how many sensor reads this agent has performed.
func (m *Module) Samples() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples
}

// NodeSamples is one node's contribution to a job query.
type NodeSamples struct {
	Rank     int32  `json:"rank"`
	Hostname string `json:"hostname"`
	Complete bool   `json:"complete"`
	// Source names where the samples came from when it was not the
	// in-memory ring: "tsdb" means the window had aged out of the ring
	// and was answered from the durable store.
	Source  string               `json:"source,omitempty"`
	Samples []variorum.NodePower `json:"samples"`
}

// window resolves a raw read's or an aggregate's window to the absolute
// [start, end]; an end of 0 means now (the job is still running). NaN
// compares false everywhere, so non-finite bounds are refused before any
// comparison, as is a window that ends before it starts.
func (m *Module) window(req query.PlanSpec) (start, end float64, err error) {
	if !query.IsFinite(req.StartSec) || !query.IsFinite(req.EndSec) {
		return 0, 0, errors.New("powermon: start/end must be finite")
	}
	end = req.EndSec
	if end == 0 {
		end = m.ctx.Clock().Now().Seconds()
	}
	if end < req.StartSec {
		return 0, 0, errors.New("powermon: window ends before it starts")
	}
	return req.StartSec, end, nil
}

// handleCollect is the node-agent's one read (query.FetchService). A
// request with no expression asks for the raw samples of a window, from
// the resolution query.ReadRaw plans: the ring, the durable blocks once
// the ring has lost the window start, the ring again, incomplete, when
// the store cannot answer. A request with an expression is a query plan
// and gets the records query.ReadPlan selects on this rank.
func (m *Module) handleCollect(req *broker.Request) {
	var spec query.PlanSpec
	if err := req.Msg.Unmarshal(&spec); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	out := query.FetchReply{Rank: m.ctx.Rank()}
	if spec.Expr != "" {
		data, err := query.ReadPlan(m, spec, out.Rank)
		if err != nil {
			_ = req.Fail(msg.EINVAL, err.Error())
			return
		}
		out.LocalData = data
		_ = req.Respond(out)
		return
	}
	start, end, err := m.window(spec)
	if err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	out.LocalData = query.ReadRaw(m, start, end)
	if node, ok := m.ctx.Local().(*hw.Node); ok {
		out.Hostname = node.Name()
	}
	_ = req.Respond(out)
}

// nodeSamples is a raw read's reply as a job query's per-node series:
// a durable read is labelled "tsdb", a ring read not at all.
func nodeSamples(r query.FetchReply) NodeSamples {
	ns := NodeSamples{Rank: r.Rank, Hostname: r.Hostname, Complete: r.Complete, Samples: r.Samples}
	if r.Source == query.SourceStoreRaw {
		ns.Source = "tsdb"
	}
	return ns
}

// handleStats reports the node-agent's ring state — the operational
// visibility a production site needs to size the buffer ("the size of
// the buffer, as well as the sampling rate, are configurable", §III-A).
func (m *Module) handleStats(req *broker.Request) {
	m.mu.Lock()
	stats := map[string]any{
		"rank":                m.ctx.Rank(),
		"samples_taken":       m.samples,
		"ring_len":            m.arch.raw.Len(),
		"ring_cap":            m.arch.raw.Cap(),
		"ring_evicted":        m.arch.raw.Evicted(),
		"sample_interval_sec": m.cfg.SampleInterval.Seconds(),
		"tiers":               m.arch.stats(),
		"reattaches":          m.reattaches,
	}
	if oldest, ok := m.arch.raw.Oldest(); ok {
		stats["oldest_sample_sec"] = oldest
	}
	if m.store != nil {
		stats["store"] = m.store.Health()
	}
	m.mu.Unlock()
	_ = req.Respond(stats)
}

// AggPartial is a mergeable partial aggregate of an aggregate-mode
// query: what one TBON subtree knows about a job's power. Partials from
// sibling subtrees merge at their parent, so the payload crossing any
// link stays aggregate-sized.
type AggPartial struct {
	// Nodes counts agents that contributed at least one sample.
	Nodes int `json:"nodes"`
	// Power aggregates every sample of every contributing node.
	Power variorum.PowerAgg `json:"power"`
	// NodeMeanSumW sums each contributing node's mean node power, so the
	// root can report the paper's "average per-node power" (mean of
	// node means) without per-node series.
	NodeMeanSumW float64 `json:"node_mean_sum_w"`
	CPUMeanSumW  float64 `json:"cpu_mean_sum_w"`
	GPUMeanSumW  float64 `json:"gpu_mean_sum_w"`
	// MemMeanSumW sums mem means over MemNodes (nodes that measure it).
	MemMeanSumW float64 `json:"mem_mean_sum_w"`
	MemNodes    int     `json:"mem_nodes"`
	// EnergySumJ sums per-node trapezoid energy over the window.
	EnergySumJ float64 `json:"energy_sum_j"`
	// Complete is the AND of per-node window completeness.
	Complete bool `json:"complete"`
	// CoarsestTierSec is the coarsest archive resolution consulted
	// (0 = all contributions came from raw samples).
	CoarsestTierSec float64 `json:"coarsest_tier_sec,omitempty"`
}

// localWindowAgg is the reduction's Local: this node's window aggregate.
func (m *Module) localWindowAgg(body, _ json.RawMessage) (AggPartial, error) {
	var req query.PlanSpec
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return AggPartial{}, err
		}
	}
	start, end, err := m.window(req)
	if err != nil {
		return AggPartial{}, err
	}
	return m.windowPartial(start, end), nil
}

// windowPartial aggregates [start, end] from the resolution the query
// planner picks for it — the same choice, and the same degraded
// fallback, as the pushdown's.
func (m *Module) windowPartial(start, end float64) AggPartial {
	var w windowFold
	_, tierSec, complete := query.Visit(m, start, end, w.sample, w.bucket)
	out := AggPartial{Complete: complete, CoarsestTierSec: tierSec}
	if w.power.Node.Count == 0 {
		// No samples in-window: still a (complete or not) contribution,
		// just an empty one.
		return out
	}
	out.Nodes = 1
	out.Power = w.power
	out.NodeMeanSumW = w.power.Node.Mean()
	out.CPUMeanSumW = w.power.CPU.Mean()
	out.GPUMeanSumW = w.power.GPU.Mean()
	if w.power.Mem.Count > 0 {
		out.MemMeanSumW = w.power.Mem.Mean()
		out.MemNodes = 1
	}
	out.EnergySumJ = w.energyJ
	return out
}

// windowFold sums a window's records: raw samples into per-component
// statistics and trapezoid energy, or tier buckets, which carry both.
type windowFold struct {
	power   variorum.PowerAgg
	energyJ float64
	lastTs  float64
	lastW   float64
}

func (w *windowFold) sample(p *variorum.NodePower) {
	watts := p.TotalWatts()
	if w.power.Node.Count > 0 && p.Timestamp > w.lastTs {
		w.energyJ += (p.Timestamp - w.lastTs) * (watts + w.lastW) / 2
	}
	w.power.Add(*p)
	w.lastTs, w.lastW = p.Timestamp, watts
}

func (w *windowFold) bucket(b *variorum.Bucket) {
	w.power.Merge(b.Power)
	w.energyJ += b.EnergyJ
}

// mergeAggPartials is the reduction's Merge.
func mergeAggPartials(a, b AggPartial) (AggPartial, error) {
	a.Nodes += b.Nodes
	a.Power.Merge(b.Power)
	a.NodeMeanSumW += b.NodeMeanSumW
	a.CPUMeanSumW += b.CPUMeanSumW
	a.GPUMeanSumW += b.GPUMeanSumW
	a.MemMeanSumW += b.MemMeanSumW
	a.MemNodes += b.MemNodes
	a.EnergySumJ += b.EnergySumJ
	a.Complete = a.Complete && b.Complete
	if b.CoarsestTierSec > a.CoarsestTierSec {
		a.CoarsestTierSec = b.CoarsestTierSec
	}
	return a, nil
}

// Query modes.
const (
	// ModeRaw gathers every matching sample from every node — the
	// paper's flat CSV path, full fidelity.
	ModeRaw = "raw"
	// ModeAggregate answers per-job summary statistics computed
	// in-network; only aggregates cross the TBON.
	ModeAggregate = "aggregate"
)

// queryRequest asks the root-agent for a job's power data.
type queryRequest struct {
	JobID uint64 `json:"jobid"`
	// Mode selects ModeRaw (default) or ModeAggregate.
	Mode string `json:"mode,omitempty"`
}

// JobPower is the aggregated result for one job: per-node sample series
// plus the job metadata they were matched against.
type JobPower struct {
	JobID    uint64        `json:"jobid"`
	App      string        `json:"app"`
	StartSec float64       `json:"start_sec"`
	EndSec   float64       `json:"end_sec"` // 0 = still running at query time
	Nodes    []NodeSamples `json:"nodes"`
}

// Complete reports whether every node had the job's full window buffered.
func (jp JobPower) Complete() bool {
	for _, n := range jp.Nodes {
		if !n.Complete {
			return false
		}
	}
	return true
}

// JobAggregate is the aggregate-mode result: the per-job figures the
// paper's tables report, computed in-network.
type JobAggregate struct {
	JobID    uint64  `json:"jobid"`
	App      string  `json:"app"`
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"` // 0 = still running at query time

	// NodesQueried is the job's node count; NodesReporting is how many
	// agents answered; NodesWithData is how many had in-window samples.
	NodesQueried   int `json:"nodes_queried"`
	NodesReporting int `json:"nodes_reporting"`
	NodesWithData  int `json:"nodes_with_data"`
	// Partial is true when any agent was unreachable (dead broker or
	// subtree); Complete is false when a reporting agent had already
	// evicted part of the window.
	Partial  bool `json:"partial,omitempty"`
	Complete bool `json:"complete"`

	SampleCount int `json:"sample_count"`
	// TierSec is the coarsest archive resolution consulted (0 = raw).
	TierSec float64 `json:"tier_sec,omitempty"`

	// The paper's summary figures (Table II shape): mean of per-node
	// mean power, peak single-sample node power, per-component means
	// (-1 where unmeasurable), and energy.
	AvgNodePowerW     float64 `json:"avg_node_power_w"`
	MaxNodePowerW     float64 `json:"max_node_power_w"`
	AvgCPUW           float64 `json:"avg_cpu_w"`
	AvgMemW           float64 `json:"avg_mem_w"`
	AvgGPUW           float64 `json:"avg_gpu_w"`
	AvgEnergyPerNodeJ float64 `json:"avg_energy_per_node_j"`
	TotalEnergyJ      float64 `json:"total_energy_j"`
}

// jobRecord is the job-manager metadata a query resolves.
type jobRecord struct {
	ID    uint64  `json:"id"`
	Ranks []int32 `json:"ranks"`
	Start float64 `json:"start_sec"`
	End   float64 `json:"end_sec"`
	Spec  struct {
		App string `json:"app"`
	} `json:"spec"`
}

// resolveJob looks the job up through the job manager (the paper's
// client script does this with the job identifier). It fails the
// request itself on error.
func (m *Module) resolveJob(req *broker.Request, jobID uint64) (jobRecord, bool) {
	var rec jobRecord
	infoResp, err := m.ctx.Broker().Call(msg.NodeAny, "job-manager.info", map[string]uint64{"id": jobID})
	if err != nil {
		_ = req.Fail(msg.ENOENT, fmt.Sprintf("powermon: job %d: %v", jobID, err))
		return rec, false
	}
	if err := infoResp.Unmarshal(&rec); err != nil {
		_ = req.Fail(msg.EPROTO, err.Error())
		return rec, false
	}
	if len(rec.Ranks) == 0 {
		_ = req.Fail(msg.EINVAL, fmt.Sprintf("powermon: job %d has not started", jobID))
		return rec, false
	}
	return rec, true
}

// handleQuery is the root-agent: resolve the job, then answer either by
// flat raw gather (ModeRaw) or by in-network reduction (ModeAggregate).
func (m *Module) handleQuery(req *broker.Request) {
	var body queryRequest
	if err := req.Msg.Unmarshal(&body); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	switch body.Mode {
	case "", ModeRaw:
		m.queryRaw(req, body)
	case ModeAggregate:
		m.queryAggregate(req, body)
	default:
		_ = req.Fail(msg.EINVAL, fmt.Sprintf("powermon: unknown query mode %q", body.Mode))
	}
}

// queryRaw gathers the job's window from each of its node-agents over
// the TBON — the paper's flat CSV path.
func (m *Module) queryRaw(req *broker.Request, body queryRequest) {
	rec, ok := m.resolveJob(req, body.JobID)
	if !ok {
		return
	}
	result := JobPower{JobID: rec.ID, App: rec.Spec.App, StartSec: rec.Start, EndSec: rec.End}
	window := query.PlanSpec{StartSec: rec.Start, EndSec: rec.End}
	m.ctx.Broker().Gather(rec.Ranks, query.FetchService, window, m.cfg.CollectTimeout, func(rank int32, resp *msg.Message, err error) {
		// A node that cannot answer (unreachable, timed out, erroring or
		// garbled) contributes an explicit empty incomplete series
		// rather than failing the query.
		var reply query.FetchReply
		if err != nil || resp.Unmarshal(&reply) != nil {
			result.Nodes = append(result.Nodes, NodeSamples{Rank: rank})
			return
		}
		result.Nodes = append(result.Nodes, nodeSamples(reply))
	})
	_ = req.Respond(result)
}

// queryAggregate answers the job's summary statistics via in-network
// reduction: each TBON rank merges its subtree's partials, so the root
// link carries one aggregate instead of every raw sample.
func (m *Module) queryAggregate(req *broker.Request, body queryRequest) {
	rec, ok := m.resolveJob(req, body.JobID)
	if !ok {
		return
	}
	res, err := m.reducer.Reduce(rec.Ranks,
		query.PlanSpec{StartSec: rec.Start, EndSec: rec.End}, m.cfg.CollectTimeout)
	if err != nil {
		_ = req.Fail(msg.EPROTO, err.Error())
		return
	}
	out := JobAggregate{
		JobID:          rec.ID,
		App:            rec.Spec.App,
		StartSec:       rec.Start,
		EndSec:         rec.End,
		NodesQueried:   len(rec.Ranks),
		NodesReporting: res.Ranks,
		Partial:        res.Partial,
	}
	agg := res.Aggregate
	out.NodesWithData = agg.Nodes
	out.Complete = res.Ranks > 0 && agg.Complete && !res.Partial
	out.SampleCount = agg.Power.Node.Count
	out.TierSec = agg.CoarsestTierSec
	if agg.Nodes > 0 {
		n := float64(agg.Nodes)
		out.AvgNodePowerW = agg.NodeMeanSumW / n
		out.MaxNodePowerW = agg.Power.Node.Max
		out.AvgCPUW = agg.CPUMeanSumW / n
		out.AvgGPUW = agg.GPUMeanSumW / n
		if agg.MemNodes > 0 {
			out.AvgMemW = agg.MemMeanSumW / float64(agg.MemNodes)
		} else {
			out.AvgMemW = variorum.Unsupported
		}
		out.AvgEnergyPerNodeJ = agg.EnergySumJ / n
		out.TotalEnergyJ = agg.EnergySumJ
	}
	_ = req.Respond(out)
}
