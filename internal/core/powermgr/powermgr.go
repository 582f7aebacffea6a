// Package powermgr implements flux-power-manager, the paper's
// hierarchical, state-aware job power management module (§III-B).
//
// Three levels, as in the paper:
//
//   - The cluster-level-manager (rank 0) holds the global power
//     constraint and allocates power to jobs in proportion to their node
//     counts (§III-B1). Unconstrained systems get the theoretical peak
//     per node and no capping.
//   - The job-level-manager (also rank 0) splits each job's allocation
//     evenly over its nodes and pushes the node-level power limit to each
//     node over the TBON.
//   - The node-level-manager (every rank) enforces its limit through
//     Variorum, tracks node power on its own sampling timer, and — under
//     the FPP policy — runs one fpp.Controller per GPU to adjust caps
//     dynamically.
//
// Enforcement detail learned from the paper's Table III/IV: trusting the
// vendor's node-level capping alone is wasteful, because IBM's firmware
// derives an extremely conservative GPU cap from a node cap. The manager
// therefore sets a fixed vendor node cap only as a hardware *backstop*
// (1950 W, the value the paper found tracks a 9.6 kW cluster bound) and
// enforces the real limit itself with per-GPU caps sized from the paper's
// measured ~400 W idle reserve.
package powermgr

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"fluxpower/internal/core/fpp"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/hw"
	"fluxpower/internal/ringbuf"
	"fluxpower/internal/simtime"
	"fluxpower/internal/variorum"
)

// ModuleName is the manager's registered module/service name.
const ModuleName = "power-manager"

// Policy selects how node-level limits are enforced.
type Policy string

// Policies.
const (
	// PolicyNone performs no capping (the unconstrained baseline).
	PolicyNone Policy = "none"
	// PolicyStatic sets a fixed vendor node-level cap on every node and
	// lets the vendor firmware derive GPU caps — the IBM-default baseline
	// of Tables III/IV.
	PolicyStatic Policy = "static"
	// PolicyProportional enforces the proportional-sharing allocation
	// with manager-derived per-GPU caps (§III-B1).
	PolicyProportional Policy = "proportional"
	// PolicyFPP is proportional sharing plus the per-GPU FFT controller
	// (§III-B2).
	PolicyFPP Policy = "fpp"
)

// Config configures the manager (same struct on every rank).
type Config struct {
	// Policy selects the enforcement scheme.
	Policy Policy
	// GlobalCapW is the cluster-level power bound; 0 = unconstrained.
	GlobalCapW float64
	// StaticNodeCapW is the per-node vendor cap under PolicyStatic.
	StaticNodeCapW float64
	// PushTimeout bounds each node-limit RPC issued by the job-level
	// manager (default 5 s). A node that cannot acknowledge in time is
	// recorded as a push failure instead of blocking the rest of the
	// job's ranks.
	PushTimeout time.Duration
	// Controller configures the closed-loop budget controller layered on
	// the proportional split (rank 0): observation rounds compare each
	// job's measured draw against its cap; retune mode reclaims slack
	// from under-cap jobs and grants it to throttled ones. Off by
	// default.
	Controller ControllerConfig
}

const (
	// backstopNodeCapW is the vendor node cap installed as a safety
	// backstop under proportional/FPP.
	backstopNodeCapW = 1950
	// idleReserveW is the per-node power reserved for CPU/memory/uncore
	// when deriving GPU caps from a node limit: the paper's measured idle.
	idleReserveW = 400
	// sampleInterval is the node-level manager's power tracking period.
	sampleInterval = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyNone
	}
	if c.PushTimeout <= 0 {
		c.PushTimeout = 5 * time.Second
	}
	c.Controller = c.Controller.withDefaults()
	return c
}

// Allocation is one job's power grant.
type Allocation struct {
	JobID     uint64  `json:"jobid"`
	Ranks     []int32 `json:"ranks"`
	PerNodeW  float64 `json:"per_node_w"`
	JobLimitW float64 `json:"job_limit_w"`
	Policy    Policy  `json:"policy"`
}

// Manager is the power-manager module. Load one per rank; the rank-0
// instance runs the cluster- and job-level managers.
type Manager struct {
	cfg Config
	ctx *broker.Context

	mu sync.Mutex

	// Node-level state.
	node        *hw.Node
	nodeLimitW  float64
	nodePolicy  Policy
	lastNodeW   float64    // last sampled node draw, the controller's feedback
	sampleBuf   hw.Reading // scratch for onSample: one Read per interval per rank, zero allocs
	fppCtrls    []*fpp.Controller
	capWrites   uint64 // diagnostics: Variorum cap calls issued
	capRetries  uint64 // writes re-issued after verification failed (§V)
	capFailures uint64 // writes that never took effect despite retries

	// Cluster-level state (rank 0 only).
	allocs map[uint64]*Allocation
	// Push diagnostics (rank 0 only): limit RPCs that failed or timed
	// out, total and most-recent-per-rank. The paper's operational
	// lesson (§V) is that silently dropped enforcement must be visible.
	pushFailures uint64
	pushErrs     map[int32]string
	// Positive acknowledgements per rank, and the instance-second
	// timestamps of each rank's newest maxAckTimes acks, served by
	// power-manager.acks. The chaos invariant checker uses them to prove
	// no cap-limit push was acknowledged by a rank while it was crashed.
	pushAcks   map[int32]uint64
	pushAckSec map[int32]*ringbuf.Ring[float64]
	// Limit re-pushes triggered by topology reattach events (rank 0
	// only): enforcement state is job-level-manager-owned, so a moved or
	// restarted node gets its current limit pushed again rather than
	// running uncapped until the next allocation change.
	limitRepushes uint64

	// Closed-loop controller state (rank 0 only). jobCtls holds live jobs
	// only: onJobFinish drops a job's entry with its allocation, and the
	// fleet totals below keep what the finished job contributed.
	ctl     ControllerConfig
	jobCtls map[uint64]*jobCtl
	fleet   ctlFleet
}

// maxAckTimes bounds the per-rank acknowledgement timestamp history: the
// newest maxAckTimes acks are kept.
const maxAckTimes = 256

// New creates a manager module instance.
func New(cfg Config) *Manager {
	full := cfg.withDefaults()
	return &Manager{
		cfg:        full,
		ctl:        full.Controller,
		allocs:     make(map[uint64]*Allocation),
		pushErrs:   make(map[int32]string),
		pushAcks:   make(map[int32]uint64),
		pushAckSec: make(map[int32]*ringbuf.Ring[float64]),
		jobCtls:    make(map[uint64]*jobCtl),
	}
}

// Name implements broker.Module.
func (m *Manager) Name() string { return ModuleName }

// Shutdown implements broker.Module: releases any caps it installed.
func (m *Manager) Shutdown() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearCapsLocked()
	return nil
}

// Init implements broker.Module. It refuses a cluster policy it cannot
// enforce: an unknown name would book allocations but cap nothing.
func (m *Manager) Init(ctx *broker.Context) error {
	switch m.cfg.Policy {
	case PolicyNone, PolicyStatic, PolicyProportional, PolicyFPP:
	default:
		return fmt.Errorf("powermgr: unknown policy %q (want none, static, proportional or fpp)", m.cfg.Policy)
	}
	m.ctx = ctx
	node, ok := ctx.Local().(*hw.Node)
	if !ok {
		return fmt.Errorf("powermgr: rank %d broker has no hardware node attached", ctx.Rank())
	}
	m.node = node

	if err := ctx.RegisterService("power-manager.node", m.handleNode); err != nil {
		return err
	}
	// Node-level power tracking "in a separate thread" (§III-B): the
	// sampling timer feeding the FPP controllers.
	if _, err := ctx.Every(sampleInterval, m.onSample); err != nil {
		return err
	}

	if ctx.Rank() == 0 {
		if err := ctx.RegisterService("power-manager.status", m.handleStatus); err != nil {
			return err
		}
		if err := ctx.RegisterService("power-manager.acks", m.handleAcks); err != nil {
			return err
		}
		if err := ctx.RegisterService("power-manager.setglobal", m.handleSetGlobal); err != nil {
			return err
		}
		ctx.Subscribe(job.EventStart, m.onJobStart)
		ctx.Subscribe(job.EventFinish, m.onJobFinish)
		// A topology reattach means limit pushes to the moved ranks may
		// have been dropped while they were orphaned — and a rank that
		// crash-restarted has lost its caps entirely. Re-push the
		// authoritative limit for every moved rank so enforcement heals
		// along with the tree.
		ctx.Subscribe(broker.TopicReattach, m.onReattach)
		// The closed-loop budget controller only makes sense over the
		// dynamic policies: static/none install no per-job caps to tune.
		if m.ctl.Mode != ControllerOff &&
			(m.cfg.Policy == PolicyProportional || m.cfg.Policy == PolicyFPP) {
			if _, err := ctx.Every(m.ctl.Interval, m.onControllerInterval); err != nil {
				return err
			}
		}
		// PolicyStatic caps every node once, up front: that is exactly
		// what a site does with the IBM default mechanism. Deferred one
		// timer tick so that node-level managers on the other ranks have
		// finished loading before the RPCs arrive.
		if m.cfg.Policy == PolicyStatic && m.cfg.StaticNodeCapW > 0 {
			if _, err := ctx.After(time.Millisecond, func(simtime.Time) {
				for rank := int32(0); rank < ctx.Size(); rank++ {
					m.sendNodeLimit(rank, 0, m.cfg.StaticNodeCapW, PolicyStatic)
				}
			}); err != nil {
				return err
			}
		}
	}
	// The FPP interval timer is always armed: even on clusters whose
	// default is proportional, individual jobs may request FPP. It is a
	// no-op while no controllers exist.
	if _, err := ctx.Every(fpp.CapIntervalSec*time.Second, m.onFPPInterval); err != nil {
		return err
	}
	return nil
}

// ---- Cluster-level manager (rank 0) ----

// onJobStart implements §III-B1's admission: give the new job the maximum
// possible per-node power if the remaining budget covers it, otherwise
// redistribute P_G/(N_k + N_i) to every job.
func (m *Manager) onJobStart(ev *msg.Message) {
	if m.cfg.Policy == PolicyNone || m.cfg.Policy == PolicyStatic {
		return
	}
	var rec job.Record
	if err := ev.Unmarshal(&rec); err != nil {
		return
	}
	m.mu.Lock()
	m.allocs[rec.ID] = &Allocation{
		JobID:  rec.ID,
		Ranks:  append([]int32(nil), rec.Ranks...),
		Policy: m.resolveJobPolicy(rec.Spec.PowerPolicy),
	}
	// The new job has no cap yet, so it adds nothing to the fleet sum.
	jobs, lim := m.snapshotLocked(nil), m.limitsLocked()
	rows := []ctlJob{{id: rec.ID, capW: lim.peakW}}
	if !admitsAtPeak(jobs, lim, len(rec.Ranks)) {
		rows = evenSplit(jobs, lim) // proportional redistribution
	}
	push := m.applyLocked(rows)
	m.mu.Unlock()
	m.pushAll(push)
}

// admitsAtPeak reports whether the budget's free headroom covers a new
// job of the given node count at the node peak (always, unconstrained).
func admitsAtPeak(jobs []ctlJob, lim ctlLimits, nodes int) bool {
	return lim.budgetW <= 0 || lim.budgetW-fleetW(jobs) >= lim.peakW*float64(nodes)
}

// onJobFinish reclaims a finished job's power and redistributes it.
func (m *Manager) onJobFinish(ev *msg.Message) {
	if m.cfg.Policy == PolicyNone || m.cfg.Policy == PolicyStatic {
		return
	}
	var rec job.Record
	if err := ev.Unmarshal(&rec); err != nil {
		return
	}
	m.mu.Lock()
	a, ok := m.allocs[rec.ID]
	if !ok {
		m.mu.Unlock()
		return
	}
	delete(m.allocs, rec.ID)
	delete(m.jobCtls, rec.ID)
	push := m.applyLocked(evenSplit(m.snapshotLocked(nil), m.limitsLocked()))
	m.mu.Unlock()

	// Release caps on the finished job's nodes...
	for _, rank := range a.Ranks {
		m.sendNodeLimit(rank, rec.ID, 0, a.Policy)
	}
	// ...and reclaim: remaining jobs get the freed power (Fig 5).
	m.pushAll(push)
}

// maxNodePower returns the per-node theoretical peak used for
// unconstrained allocation.
func (m *Manager) maxNodePower() float64 {
	cfg := m.node.Config()
	if cfg.MaxNodePowerW > 0 {
		return cfg.MaxNodePowerW
	}
	// No published node maximum (Tioga): derive a peak from components.
	return float64(cfg.Sockets)*300 + float64(cfg.GPUs)*cfg.GPUMaxPowerW
}

// applyLocked sets each row's per-node cap on its job's allocation and
// records it in the job's cap history. Rows come in job-id order, and so
// do the returned allocations, which pushAll sends once m.mu is released.
func (m *Manager) applyLocked(rows []ctlJob) []*Allocation {
	push := make([]*Allocation, 0, len(rows))
	for _, r := range rows {
		a := m.allocs[r.id]
		a.PerNodeW = r.capW
		a.JobLimitW = a.PerNodeW * float64(len(a.Ranks))
		m.recordCapLocked(r.id, r.capW)
		push = append(push, a)
	}
	return push
}

// pushAll is the job-level manager: equal split across each job's nodes
// (the allocation is already per-node) pushed to each node-level manager
// over the TBON. All node RPCs are issued before any response is
// awaited, so the push is one concurrent fan-out rather than N serial
// round-trips; a slow or dead node only costs its own PushTimeout.
func (m *Manager) pushAll(push []*Allocation) {
	for _, a := range push {
		for _, rank := range a.Ranks {
			m.sendNodeLimit(rank, a.JobID, a.PerNodeW, a.Policy)
		}
	}
}

// resolveJobPolicy maps a job's requested power policy onto the manager's
// configuration: jobs may choose between the dynamic policies; anything
// else (or no request) uses the cluster default.
func (m *Manager) resolveJobPolicy(requested string) Policy {
	switch Policy(requested) {
	case PolicyProportional, PolicyFPP:
		return Policy(requested)
	default:
		return m.cfg.Policy
	}
}

type nodeLimitRequest struct {
	JobID  uint64  `json:"jobid"`
	LimitW float64 `json:"limit_w"`
	Policy Policy  `json:"policy"`
}

// sendNodeLimit pushes one node's limit asynchronously. The returned
// future resolves with the node's acknowledgement, an error response, or
// a synthesized ETIMEDOUT after PushTimeout. Failures (e.g. capping
// disabled on this architecture, or an unreachable node) are recorded in
// the push diagnostics but are not fatal: telemetry keeps working, as on
// Tioga.
func (m *Manager) sendNodeLimit(rank int32, jobID uint64, limitW float64, policy Policy) *broker.Future {
	f := m.ctx.RPCWithTimeout(rank, "power-manager.node.setlimit", nodeLimitRequest{
		JobID: jobID, LimitW: limitW, Policy: policy,
	}, m.cfg.PushTimeout)
	f.Then(func(resp *msg.Message) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if err := resp.Err(); err != nil {
			m.pushFailures++
			m.pushErrs[rank] = err.Error()
		} else {
			delete(m.pushErrs, rank)
			m.pushAcks[rank]++
			times, ok := m.pushAckSec[rank]
			if !ok {
				times = ringbuf.New[float64](maxAckTimes)
				m.pushAckSec[rank] = times
			}
			times.Push(m.ctx.Clock().Now().Seconds())
		}
	})
	return f
}

// onReattach re-pushes the current node-level limit to every rank a
// topology reattach event moved. A rank that rejoined after a
// crash-restart boots with no caps installed, and pushes issued while a
// rank was orphaned time out and are recorded as push failures; either
// way the node would run at the wrong limit until the next allocation
// change. Re-pushing on reattach is idempotent for ranks that never
// lost their caps.
func (m *Manager) onReattach(ev *msg.Message) {
	var re broker.ReattachEvent
	if err := ev.Unmarshal(&re); err != nil {
		return
	}
	type push struct {
		rank   int32
		jobID  uint64
		limitW float64
		policy Policy
	}
	var items []push
	m.mu.Lock()
	for _, rank := range re.Ranks {
		found := false
		for _, a := range m.allocs {
			for _, ar := range a.Ranks {
				if ar == rank {
					items = append(items, push{rank, a.JobID, a.PerNodeW, a.Policy})
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found && m.cfg.Policy == PolicyStatic && m.cfg.StaticNodeCapW > 0 {
			items = append(items, push{rank, 0, m.cfg.StaticNodeCapW, PolicyStatic})
		}
	}
	m.limitRepushes += uint64(len(items))
	m.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].rank < items[j].rank })
	for _, it := range items {
		m.sendNodeLimit(it.rank, it.jobID, it.limitW, it.policy)
	}
}

// handleSetGlobal changes the cluster power bound at runtime.
func (m *Manager) handleSetGlobal(req *broker.Request) {
	var body struct {
		Watts float64 `json:"watts"`
	}
	if err := req.Msg.Unmarshal(&body); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	if body.Watts < 0 {
		_ = req.Fail(msg.EINVAL, "powermgr: negative global cap")
		return
	}
	m.mu.Lock()
	m.cfg.GlobalCapW = body.Watts
	push := m.applyLocked(evenSplit(m.snapshotLocked(nil), m.limitsLocked()))
	m.mu.Unlock()
	m.pushAll(push)
	_ = req.Respond(map[string]float64{"watts": body.Watts})
}

// handleStatus reports the live allocations, the push diagnostics and
// the controller's fleet totals plus its live jobs' detail: O(live
// state), however many jobs have finished.
func (m *Manager) handleStatus(req *broker.Request) {
	m.mu.Lock()
	out := make([]Allocation, 0, len(m.allocs))
	for _, a := range m.allocs {
		out = append(out, *a)
	}
	global := m.cfg.GlobalCapW
	pushFailures := m.pushFailures
	repushes := m.limitRepushes
	pushErrs := make(map[int32]string, len(m.pushErrs))
	for rank, e := range m.pushErrs {
		pushErrs[rank] = e
	}
	pushAcks := make(map[int32]uint64, len(m.pushAcks))
	for rank, n := range m.pushAcks {
		pushAcks[rank] = n
	}
	controller := m.controllerStatusLocked()
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	_ = req.Respond(statusReply{
		Allocations:   out,
		Controller:    controller,
		GlobalCapW:    global,
		LimitRepushes: repushes,
		Policy:        m.cfg.Policy,
		PushAcks:      pushAcks,
		PushErrors:    pushErrs,
		PushFailures:  pushFailures,
	})
}

// statusReply is the power-manager.status payload. Fields stay in
// alphabetical JSON-key order: TestReplyBytes pins the encoded bytes.
type statusReply struct {
	Allocations   []Allocation     `json:"allocations"`
	Controller    ControllerStatus `json:"controller"`
	GlobalCapW    float64          `json:"global_cap_w"`
	LimitRepushes uint64           `json:"limit_repushes"`
	Policy        Policy           `json:"policy"`
	PushAcks      map[int32]uint64 `json:"push_acks"`
	PushErrors    map[int32]string `json:"push_errors"`
	PushFailures  uint64           `json:"push_failures"`
}

// handleAcks serves each rank's newest acknowledgement timestamps,
// oldest first: the ack log the chaos checker audits against crash
// windows, kept out of power-manager.status so that reply stays small.
func (m *Manager) handleAcks(req *broker.Request) {
	m.mu.Lock()
	out := make(map[int32][]float64, len(m.pushAckSec))
	for rank, times := range m.pushAckSec {
		secs := make([]float64, times.Len())
		for i := range secs {
			secs[i] = times.At(i)
		}
		out[rank] = secs
	}
	m.mu.Unlock()
	_ = req.Respond(acksReply{PushAckSec: out})
}

// acksReply is the power-manager.acks payload.
type acksReply struct {
	PushAckSec map[int32][]float64 `json:"push_ack_sec"`
}

// ---- Node-level manager (every rank) ----

func (m *Manager) handleNode(req *broker.Request) {
	switch req.Msg.Topic {
	case "power-manager.node.setlimit":
		m.handleSetLimit(req)
	case "power-manager.node.info":
		m.handleNodeInfo(req)
	case "power-manager.node.observe":
		m.handleObserve(req)
	default:
		_ = req.Fail(msg.ENOSYS, fmt.Sprintf("powermgr: unknown operation %q", req.Msg.Topic))
	}
}

func (m *Manager) handleSetLimit(req *broker.Request) {
	var body nodeLimitRequest
	if err := req.Msg.Unmarshal(&body); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	policy := body.Policy
	if policy == "" {
		policy = m.cfg.Policy
	}
	m.mu.Lock()
	err := m.enforceLocked(body.LimitW, policy)
	m.mu.Unlock()
	if err != nil {
		_ = req.Fail(msg.EPERM, err.Error())
		return
	}
	_ = req.Respond(setLimitAck{LimitW: body.LimitW, Rank: m.ctx.Rank()})
}

// setLimitAck acknowledges a node limit. Fields stay in alphabetical
// JSON-key order: TestReplyBytes pins the encoded bytes.
type setLimitAck struct {
	LimitW float64 `json:"limit_w"`
	Rank   int32   `json:"rank"`
}

// enforceLocked applies a node-level power limit (0 releases) under the
// given policy — per-job, so two jobs on one cluster can run different
// dynamic policies.
func (m *Manager) enforceLocked(limitW float64, policy Policy) error {
	m.nodeLimitW = limitW
	m.nodePolicy = policy
	caps := variorum.QueryCapabilities(m.node)
	if limitW == 0 {
		m.clearCapsLocked()
		return nil
	}
	switch policy {
	case PolicyStatic:
		// Vendor mechanism only: one node-level cap, firmware derives
		// the GPU caps (the conservative IBM behaviour under test).
		m.capWrites++
		return variorum.CapBestEffortNodePowerLimit(m.node, limitW)
	case PolicyProportional, PolicyFPP:
		// A limit at (or above) the node's peak is the unconstrained case:
		// "it allocates the theoretical peak power to each node and
		// performs no power capping" (§III-B).
		if limitW >= m.maxNodePower() {
			m.clearCapsLocked()
			return nil
		}
		if caps.NodeCap {
			if backstop := min(backstopNodeCapW, caps.NodeMaxW); backstop > 0 {
				m.capWrites++
				if err := m.node.SetNodeCap(backstop); err != nil {
					return err
				}
			}
		}
		if !caps.GPUCap {
			return fmt.Errorf("powermgr: rank %d: GPU capping not available on %s", m.ctx.Rank(), caps.Arch)
		}
		gpuCap := m.deriveGPUCap(limitW, caps)
		if policy == PolicyFPP {
			return m.startFPPLocked(gpuCap, caps)
		}
		m.fppCtrls = nil
		for g := 0; g < caps.GPUs; g++ {
			if err := m.writeGPUCapVerified(g, gpuCap); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

// deriveGPUCap turns a node-level limit into the manager's per-GPU cap:
// (limit - idle reserve) / #GPUs, clamped to the device range.
func (m *Manager) deriveGPUCap(limitW float64, caps variorum.Capabilities) float64 {
	if caps.GPUs == 0 {
		return 0
	}
	w := (limitW - idleReserveW) / float64(caps.GPUs)
	if w > caps.GPUMaxW {
		w = caps.GPUMaxW
	}
	if w < caps.GPUMinW {
		w = caps.GPUMinW
	}
	return w
}

// capVerifyEpsilonW is the slack allowed between the cap a device
// reports and the cap the manager asked for before the write is treated
// as a silent failure. Devices round caps to their own resolution, so
// exact float equality misclassifies every legitimately rounded write.
const capVerifyEpsilonW = 0.5

// writeGPUCapVerified issues an NVML cap write and verifies it took
// effect, retrying on silent failure. Section V reports that on some
// Lassen nodes GPU cap writes intermittently failed, "either picking up
// the last set power cap or defaulting to the maximum power cap" — a
// production-grade manager cannot trust a successful return code alone.
// Verification reads the device-reported cap back (what nvidia-smi
// shows) and compares it with what a healthy device would report for
// this request: the request clamped to the device range, within epsilon
// plus the device's rounding step. Comparing against the raw request
// with exact equality (the old behaviour) made every clamped or rounded
// write look like a failure, burning the retry budget and miscounting
// healthy nodes as broken.
func (m *Manager) writeGPUCapVerified(gpu int, watts float64) error {
	cfg := m.node.Config()
	want := watts
	if want > cfg.GPUMaxPowerW {
		want = cfg.GPUMaxPowerW
	}
	if want < cfg.GPUMinPowerW {
		want = cfg.GPUMinPowerW
	}
	tolerance := capVerifyEpsilonW + cfg.GPUCapQuantumW/2
	const maxAttempts = 3
	for attempt := 0; attempt < maxAttempts; attempt++ {
		m.capWrites++
		if err := variorum.CapGPUPowerLimit(m.node, gpu, want); err != nil {
			return err
		}
		if math.Abs(m.node.ReportedGPUCap(gpu)-want) <= tolerance {
			return nil
		}
		m.capRetries++
	}
	m.capFailures++
	return nil // keep managing the other GPUs; the failure is reported via node.info
}

// startFPPLocked (re)initializes per-GPU controllers at the derived cap.
func (m *Manager) startFPPLocked(gpuCap float64, caps variorum.Capabilities) error {
	fppCfg := fpp.Config{
		MaxGPUCapW:        caps.GPUMaxW,
		MinGPUCapW:        caps.GPUMinW,
		SampleIntervalSec: sampleInterval.Seconds(),
	}
	if len(m.fppCtrls) != caps.GPUs {
		m.fppCtrls = make([]*fpp.Controller, caps.GPUs)
	}
	for g := 0; g < caps.GPUs; g++ {
		if m.fppCtrls[g] == nil {
			ctrl, err := fpp.New(fppCfg, gpuCap)
			if err != nil {
				return err
			}
			m.fppCtrls[g] = ctrl
		} else {
			m.fppCtrls[g].SetLimit(gpuCap)
		}
		if err := m.writeGPUCapVerified(g, m.fppCtrls[g].Cap()); err != nil {
			return err
		}
	}
	return nil
}

// clearCapsLocked removes everything this manager installed.
func (m *Manager) clearCapsLocked() {
	cfg := m.node.Config()
	if cfg.NodeCapSupported {
		m.capWrites++
		_ = m.node.SetNodeCap(0)
	}
	if cfg.GPUCapSupported {
		for g := 0; g < cfg.GPUs; g++ {
			m.capWrites++
			_ = m.node.SetGPUCap(g, 0)
		}
	}
	m.fppCtrls = nil
}

// onSample tracks node power (the closed-loop controller's feedback
// signal) and feeds the FPP controllers with per-GPU telemetry.
func (m *Manager) onSample(now simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.node.ReadInto(now, &m.sampleBuf)
	r := &m.sampleBuf
	m.lastNodeW = r.TotalMeasuredW()
	if len(m.fppCtrls) == 0 {
		return
	}
	per := r.GPUsPerSensor
	if per <= 0 {
		per = 1
	}
	for g, ctrl := range m.fppCtrls {
		if ctrl == nil {
			continue
		}
		sensor := g / per
		if sensor < len(r.GPUW) {
			ctrl.Observe(r.GPUW[sensor] / float64(per))
		}
	}
}

// onFPPInterval runs Algorithm 1's MAIN loop pass on each GPU.
func (m *Manager) onFPPInterval(now simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nodeLimitW == 0 {
		return
	}
	for g, ctrl := range m.fppCtrls {
		if ctrl == nil {
			continue
		}
		capW, changed := ctrl.Interval()
		if changed {
			_ = m.writeGPUCapVerified(g, capW)
		}
	}
}

func (m *Manager) handleNodeInfo(req *broker.Request) {
	m.mu.Lock()
	info := map[string]any{
		"rank":         m.ctx.Rank(),
		"limit_w":      m.nodeLimitW,
		"policy":       m.nodePolicy,
		"cap_writes":   m.capWrites,
		"cap_retries":  m.capRetries,
		"cap_failures": m.capFailures,
		"node_cap_w":   m.node.NodeCap(),
	}
	var gpuCaps []float64
	cfg := m.node.Config()
	for g := 0; g < cfg.GPUs; g++ {
		gpuCaps = append(gpuCaps, m.node.EffectiveGPUCap(g))
	}
	info["gpu_caps_w"] = gpuCaps
	var fppCaps []float64
	var fppConv []bool
	for _, ctrl := range m.fppCtrls {
		if ctrl != nil {
			fppCaps = append(fppCaps, ctrl.Cap())
			fppConv = append(fppConv, ctrl.Converged())
		}
	}
	if fppCaps != nil {
		info["fpp_caps_w"] = fppCaps
		info["fpp_converged"] = fppConv
	}
	m.mu.Unlock()
	_ = req.Respond(info)
}

// Client wraps the manager's rank-0 services.
type Client struct {
	b *broker.Broker
}

// NewClient attaches a power-manager client.
func NewClient(b *broker.Broker) *Client { return &Client{b: b} }

// Status returns the cluster-level allocation table.
func (c *Client) Status() (policy Policy, globalW float64, allocs []Allocation, err error) {
	resp, err := c.b.Call(msg.NodeAny, "power-manager.status", nil)
	if err != nil {
		return "", 0, nil, err
	}
	var body struct {
		Policy      Policy       `json:"policy"`
		GlobalCapW  float64      `json:"global_cap_w"`
		Allocations []Allocation `json:"allocations"`
	}
	if err := resp.Unmarshal(&body); err != nil {
		return "", 0, nil, err
	}
	return body.Policy, body.GlobalCapW, body.Allocations, nil
}

// Controller returns the closed-loop controller's status: fleet totals
// of rounds, retunes and cap violations, and the live jobs' cap history
// and counters.
func (c *Client) Controller() (ControllerStatus, error) {
	resp, err := c.b.Call(msg.NodeAny, "power-manager.status", nil)
	if err != nil {
		return ControllerStatus{}, err
	}
	var body struct {
		Controller ControllerStatus `json:"controller"`
	}
	if err := resp.Unmarshal(&body); err != nil {
		return ControllerStatus{}, err
	}
	return body.Controller, nil
}

// SetGlobalCap changes the cluster power bound.
func (c *Client) SetGlobalCap(watts float64) error {
	_, err := c.b.Call(msg.NodeAny, "power-manager.setglobal", map[string]float64{"watts": watts})
	return err
}

// NodeInfo fetches a node-level manager's state.
func (c *Client) NodeInfo(rank int32) (map[string]any, error) {
	resp, err := c.b.Call(rank, "power-manager.node.info", nil)
	if err != nil {
		return nil, err
	}
	var body map[string]any
	if err := resp.Unmarshal(&body); err != nil {
		return nil, err
	}
	return body, nil
}
