// Package cluster is the simulation engine: it assembles simulated nodes
// (internal/hw), a Flux instance over them (internal/flux), and the
// application models (internal/apps), then drives everything on a
// deterministic tick.
//
// Each tick the engine, for every running job:
//
//  1. asks the job's application model for its current power demand and
//     installs it on the job's nodes;
//  2. reads back the actual power after cap enforcement;
//  3. converts actual/demand into a progress rate (bulk-synchronous jobs
//     advance at their slowest node's pace) and integrates progress;
//  4. finishes the job through the job manager when its work completes,
//     which releases nodes and redispatches queued jobs under the
//     configured sched policy (FCFS by default).
//
// The engine also accounts ground-truth energy per job (the experiment
// harness compares this against what the flux-power-monitor *measured*)
// and models the two nuisance effects of §IV-B: the monitor's small
// sampling overhead and the run-to-run jitter from OS noise/congestion
// that dominates at low node counts.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fluxpower/internal/apps"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/kvs"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
)

// System selects which paper machine to model.
type System string

// The two evaluation systems.
const (
	Lassen System = "lassen" // IBM Power AC922, 4 Volta GPUs/node
	Tioga  System = "tioga"  // HPE Cray EX235a, 4 MI250X OAMs/node
)

// MonitorModuleName is the module name whose presence on a node's broker
// applies sampling overhead. It matches powermon's registered name.
const MonitorModuleName = "power-monitor"

// Config describes a simulated cluster.
type Config struct {
	System System
	Nodes  int
	// Seed drives all stochastic elements (sensor noise, jitter, cap
	// failures). Same seed, same run.
	Seed int64
	// SensorNoiseW adds uniform measurement noise to sensors (default 0).
	SensorNoiseW float64
	// GPUCapFailureProb injects silent NVML cap-write failures (§V).
	GPUCapFailureProb float64
	// MonitorOverheadFrac is the per-node slowdown applied to jobs whose
	// nodes run the power-monitor module. Negative selects the per-system
	// default (Lassen 0.4%, Tioga 0.04% — §IV-B); zero disables.
	MonitorOverheadFrac float64
	// Jitter enables run-to-run variability: a per-job slowdown drawn at
	// start, heavy for Laghos/Quicksilver at <=2 Lassen nodes (Fig 4).
	Jitter bool
	// WrapLink, when set, wraps every TBON link as it is wired, in both
	// directions — instrumentation hook for byte/message accounting
	// (see transport.NewCounter) and for fault injection (internal/flux/chaos).
	WrapLink func(from, to int32, l transport.Link) transport.Link
	// CallTimeout bounds blocking Calls on every broker (default
	// broker.DefaultCallTimeout). The chaos experiments shorten it so
	// query failures surface quickly.
	CallTimeout time.Duration
	// Heal enables the self-healing TBON (heartbeats, orphan reattach)
	// on every broker. Nil keeps the classic fixed topology.
	Heal *broker.HealConfig
	// SchedPolicy names the job manager's dispatch policy ("fcfs",
	// "power-aware"); "" = FCFS, the paper's baseline.
	SchedPolicy string
	// SchedBudgetW is the power budget the dispatcher admits jobs
	// against (predicted draw); 0 = unlimited. Independent of powermgr's
	// GlobalCapW: the dispatcher gates admission, the power manager
	// gates enforcement — a production system sets both to the same
	// bound.
	SchedBudgetW float64
	// Engine selects the simulation core: EngineTick (the classic
	// fixed-Δt loop that advances every running job on a global 100 ms
	// ticker) or EngineEvent (discrete-event: each running job schedules
	// its own next progress event, so idle periods and idle nodes cost
	// nothing). "" = EngineTick. Both engines integrate job progress and
	// energy with identical per-Δt math on the same tick grid; the
	// tick-equivalence suite holds them to matching results.
	Engine string
}

const (
	// tbonFanout is the TBON arity.
	tbonFanout = 2
	// tick is the simulation step.
	tick = 100 * time.Millisecond
	// maxEngineShards caps the per-rank event-queue shards in EngineEvent
	// mode; a cluster uses min(Nodes, maxEngineShards). Shard 0 is
	// reserved for the engine's own job-progress events so that, at shared
	// instants, demand updates precede module sampling — the same
	// ordering the tick engine guarantees by registering its ticker
	// first.
	maxEngineShards = 64
)

// Engine values for Config.Engine.
const (
	EngineTick  = "tick"
	EngineEvent = "event"
)

func (c Config) withDefaults() Config {
	if c.Engine == "" {
		c.Engine = EngineTick
	}
	if c.MonitorOverheadFrac < 0 {
		switch c.System {
		case Tioga:
			c.MonitorOverheadFrac = 0.0004
		default:
			c.MonitorOverheadFrac = 0.004
		}
	}
	return c
}

// JobStats is the ground-truth accounting for one completed (or running)
// job, integrated every tick from actual node power.
type JobStats struct {
	ID       uint64
	App      string
	Nodes    int
	Ranks    []int32
	StartSec float64
	EndSec   float64 // 0 while running

	// EnergyPerNodeJ is ∫P dt averaged over the job's nodes, using the
	// system's *measured* node power (conservative CPU+GPU on Tioga).
	EnergyPerNodeJ float64
	// MaxNodePowerW is the peak single-node measured power.
	MaxNodePowerW float64
	// AvgNodePowerW is the time-average per-node measured power.
	AvgNodePowerW float64

	sumPowerDt float64
	sampleSec  float64
}

// ExecSec returns the job's execution time (0 if still running).
func (s JobStats) ExecSec() float64 {
	if s.EndSec == 0 {
		return 0
	}
	return s.EndSec - s.StartSec
}

type runningJob struct {
	rec      job.Record
	instance *apps.Instance
	stats    *JobStats
	// ev is the job's next progress event (EngineEvent mode only): a
	// pooled one-shot on the engine shard, re-armed after each advance.
	ev simtime.EventRef
}

// Cluster is a live simulated system.
type Cluster struct {
	cfg   Config
	arch  hw.Arch
	Sched *simtime.Scheduler
	Inst  *broker.Instance
	nodes []*hw.Node
	JM    *job.Client

	rng     *rand.Rand
	running map[uint64]*runningJob
	stats   map[uint64]*JobStats
	subs    map[uint64]*SubInstance // nested user-level instances by parent job
	ticker  *simtime.Timer          // EngineTick only

	// advMu serializes simulation advancement against Close, so Close can
	// drain an in-flight timer callback instead of racing it. closed stops
	// the engines (tick callback and job events become no-ops) the moment
	// Close is called, even before advMu is acquired.
	advMu  sync.Mutex
	closed atomic.Bool
}

// New builds a cluster: nodes, brokers, KVS and job manager, and the tick
// engine. The power modules are loaded by the caller (exactly as an
// operator would `flux module load` them).
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: %d nodes", cfg.Nodes)
	}
	var nodeCfg hw.Config
	var arch hw.Arch
	switch cfg.System {
	case Lassen:
		nodeCfg = hw.LassenConfig()
		arch = hw.ArchIBMPower9
	case Tioga:
		nodeCfg = hw.TiogaConfig()
		arch = hw.ArchAMDTrento
	default:
		return nil, fmt.Errorf("cluster: unknown system %q", cfg.System)
	}
	nodeCfg.SensorNoiseW = cfg.SensorNoiseW
	nodeCfg.GPUCapFailureProb = cfg.GPUCapFailureProb

	// EngineEvent runs on a sharded event queue: shard 0 is the engine's
	// (job progress), shards 1..shards hold broker/module timers in
	// contiguous rank blocks, so cross-rank firing order at a shared
	// instant stays rank order — matching the tick engine's load-order
	// tie-break.
	shards := min(cfg.Nodes, maxEngineShards)
	var sched *simtime.Scheduler
	if cfg.Engine == EngineEvent {
		sched = simtime.NewShardedScheduler(1 + shards)
	} else {
		sched = simtime.NewScheduler()
	}
	c := &Cluster{
		cfg:     cfg,
		arch:    arch,
		Sched:   sched,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		running: make(map[uint64]*runningJob),
		stats:   make(map[uint64]*JobStats),
		subs:    make(map[uint64]*SubInstance),
	}

	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("%s%d", cfg.System, i)
		n, err := hw.NewNode(name, nodeCfg, cfg.Seed+int64(i)*7919+1)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}

	var timersFor func(rank int32) simtime.TimerProvider
	if cfg.Engine == EngineEvent {
		timersFor = func(rank int32) simtime.TimerProvider {
			return sched.Shard(1 + int(rank)*shards/cfg.Nodes)
		}
	}
	inst, err := broker.NewInstance(broker.InstanceOptions{
		Size:        cfg.Nodes,
		Fanout:      tbonFanout,
		Scheduler:   sched,
		TimersFor:   timersFor,
		Local:       func(rank int32) any { return c.nodes[rank] },
		WrapLink:    cfg.WrapLink,
		CallTimeout: cfg.CallTimeout,
		Heal:        cfg.Heal,
	})
	if err != nil {
		return nil, err
	}
	c.Inst = inst

	if cfg.Engine == EngineTick {
		// The tick engine registers first so that, at shared deadlines,
		// demand is updated before any module timer samples power. (The
		// event engine gets the same guarantee from shard 0 being the
		// lowest shard.)
		c.ticker = sched.TickEvery(tick, c.onTick)
	}

	if err := inst.Root().LoadModule(kvs.New()); err != nil {
		return nil, err
	}
	ranks := make([]int32, cfg.Nodes)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	if err := inst.Root().LoadModule(job.NewManagerWith(ranks, job.Options{
		Policy:  cfg.SchedPolicy,
		BudgetW: cfg.SchedBudgetW,
		HW:      nodeCfg,
	})); err != nil {
		return nil, err
	}
	c.JM = job.NewClient(inst.Root())

	inst.Root().Subscribe(job.EventStart, c.onJobStart)
	inst.Root().Subscribe(job.EventFinish, c.onJobFinish)
	return c, nil
}

// Arch returns the cluster's node architecture.
func (c *Cluster) Arch() hw.Arch { return c.arch }

// Node returns the simulated hardware of a rank.
func (c *Cluster) Node(rank int32) *hw.Node { return c.nodes[rank] }

// NodeCount returns the cluster size.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// Now returns the current simulated time.
func (c *Cluster) Now() simtime.Time { return c.Sched.Now() }

// onJobStart instantiates the application model when the job manager
// starts a job.
func (c *Cluster) onJobStart(ev *msg.Message) {
	var rec job.Record
	if err := ev.Unmarshal(&rec); err != nil {
		return
	}
	if rec.Spec.App == InstanceApp {
		// An allocation-holding job backing a user-level sub-instance:
		// no application model; power is drawn by the sub-jobs the user
		// runs inside it (see SpawnSubInstance).
		c.stats[rec.ID] = &JobStats{
			ID:       rec.ID,
			App:      rec.Spec.App,
			Nodes:    len(rec.Ranks),
			Ranks:    append([]int32(nil), rec.Ranks...),
			StartSec: rec.StartSec,
		}
		return
	}
	profile, err := apps.Lookup(rec.Spec.App)
	if err != nil {
		// Unknown application: fail the job immediately so queues drain.
		_, _ = c.JM.Finish(rec.ID)
		return
	}
	instance, err := apps.NewInstance(profile, c.arch, len(rec.Ranks), rec.Spec.SizeFactor, rec.Spec.RepFactor,
		c.cfg.Seed+int64(rec.ID)*99991)
	if err != nil {
		_, _ = c.JM.Finish(rec.ID)
		return
	}
	instance.SetOverhead(c.jobOverhead(rec))
	st := &JobStats{
		ID:       rec.ID,
		App:      rec.Spec.App,
		Nodes:    len(rec.Ranks),
		Ranks:    append([]int32(nil), rec.Ranks...),
		StartSec: rec.StartSec,
	}
	c.stats[rec.ID] = st
	rj := &runningJob{rec: rec, instance: instance, stats: st}
	c.running[rec.ID] = rj
	if c.cfg.Engine == EngineEvent {
		c.scheduleJobEvent(rj)
	}
}

// jobOverhead combines monitor sampling overhead (if the job's nodes run
// the monitor module) with optional run-to-run jitter.
func (c *Cluster) jobOverhead(rec job.Record) float64 {
	o := 0.0
	if c.cfg.MonitorOverheadFrac > 0 && len(rec.Ranks) > 0 {
		loaded := false
		for _, m := range c.Inst.Broker(rec.Ranks[0]).Modules() {
			if m == MonitorModuleName {
				loaded = true
				break
			}
		}
		if loaded {
			o += c.cfg.MonitorOverheadFrac
		}
	}
	if c.cfg.Jitter {
		o += c.drawJitter(rec.Spec.App, len(rec.Ranks))
	}
	return o
}

// drawJitter models OS-daemon noise and network congestion (§IV-B): a
// half-normal slowdown whose scale depends on application sensitivity and
// node count. The paper observed >20% spread for Laghos and Quicksilver at
// 1-2 Lassen nodes and little elsewhere.
func (c *Cluster) drawJitter(app string, nodes int) float64 {
	sigma := 0.004 // baseline ~0.4%
	if c.cfg.System == Tioga {
		sigma = 0.001
	} else if nodes <= 2 && (app == "laghos" || app == "quicksilver") {
		sigma = 0.12 // the Fig 4 regime: >20% spread over repeated runs
	}
	j := c.rng.NormFloat64() * sigma
	if j < 0 {
		j = -j // jitter only ever slows a job down
	}
	if j > 0.5 {
		j = 0.5
	}
	return j
}

// onJobFinish idles the job's nodes and closes its stats record.
func (c *Cluster) onJobFinish(ev *msg.Message) {
	var rec job.Record
	if err := ev.Unmarshal(&rec); err != nil {
		return
	}
	rj, ok := c.running[rec.ID]
	if !ok {
		// Allocation-holding jobs (sub-instances) have no running entry:
		// close their stats window and idle their nodes.
		if st, isAlloc := c.stats[rec.ID]; isAlloc && st.EndSec == 0 && rec.Spec.App == InstanceApp {
			st.EndSec = rec.EndSec
			for _, rank := range rec.Ranks {
				c.nodes[rank].SetIdle()
			}
		}
		return
	}
	delete(c.running, rec.ID)
	rj.ev.Stop()
	for _, rank := range rj.rec.Ranks {
		c.nodes[rank].SetIdle()
	}
	st := rj.stats
	st.EndSec = rec.EndSec
	if st.sampleSec > 0 {
		st.AvgNodePowerW = st.sumPowerDt / st.sampleSec
		st.EnergyPerNodeJ = st.sumPowerDt
	}
}

// measuredNodePower returns the node power as the system can measure it:
// the node sensor on Lassen, the conservative CPU+GPU sum on Tioga.
func measuredNodePower(n *hw.Node, act hw.Actual) float64 {
	if n.Config().HasNodeSensor {
		return act.NodeW
	}
	w := 0.0
	for _, v := range act.CPUW {
		w += v
	}
	for _, v := range act.GPUW {
		w += v
	}
	return w
}

// advanceJob moves one running job forward by dt seconds: install the
// application's current demand on its nodes, read back actual power
// after cap enforcement, integrate energy, and advance progress at the
// slowest node's rate. Both engines call exactly this, so a tick-engine
// run and an event-engine run integrate identical per-Δt math. It
// reports whether the job completed its work.
func (c *Cluster) advanceJob(rj *runningJob, dt float64) bool {
	cfg := c.nodes[rj.rec.Ranks[0]].Config()
	demand := rj.instance.Demand(cfg)

	jobRate := 1.0
	var avgPower float64
	for _, rank := range rj.rec.Ranks {
		node := c.nodes[rank]
		node.SetDemand(demand)
		act := node.Actual()
		r := rj.instance.NodeRate(cfg, demand, act)
		if r < jobRate {
			jobRate = r
		}
		w := measuredNodePower(node, act)
		avgPower += w
		if w > rj.stats.MaxNodePowerW {
			rj.stats.MaxNodePowerW = w
		}
	}
	avgPower /= float64(len(rj.rec.Ranks))
	rj.stats.sumPowerDt += avgPower * dt
	rj.stats.sampleSec += dt

	rj.instance.Advance(dt, jobRate)
	return rj.instance.Done()
}

// onTick advances every running job by one tick (EngineTick).
func (c *Cluster) onTick(now simtime.Time) {
	if c.closed.Load() {
		return
	}
	dt := tick.Seconds()
	ids := make([]uint64, 0, len(c.running))
	for id := range c.running {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var done []uint64
	for _, id := range ids {
		if c.advanceJob(c.running[id], dt) {
			done = append(done, id)
		}
	}
	for _, id := range done {
		_, _ = c.JM.Finish(id) // triggers onJobFinish + FCFS rescheduling
	}
	c.tickSubInstances(dt)
}

// Submit queues a job.
func (c *Cluster) Submit(spec job.Spec) (uint64, error) {
	return c.JM.Submit(spec)
}

// RunningJobs returns the IDs of currently running jobs, sorted.
func (c *Cluster) RunningJobs() []uint64 {
	ids := make([]uint64, 0, len(c.running))
	for id := range c.running {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats returns the accounting for a job (valid once started). ok is
// false for unknown jobs.
func (c *Cluster) Stats(id uint64) (JobStats, bool) {
	st, ok := c.stats[id]
	if !ok {
		return JobStats{}, false
	}
	cp := *st
	return cp, true
}

// TotalPowerW returns the instantaneous measured power summed over all
// nodes (running and idle) — the quantity a cluster-level power bound
// constrains.
func (c *Cluster) TotalPowerW() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += measuredNodePower(n, n.Actual())
	}
	return total
}

// RunFor advances the simulation by d.
func (c *Cluster) RunFor(d time.Duration) {
	c.advMu.Lock()
	defer c.advMu.Unlock()
	c.Sched.Advance(d)
}

// drained reports whether no jobs are running or pending dispatch.
func (c *Cluster) drained() bool {
	if len(c.running) != 0 {
		return false
	}
	jobs, err := c.JM.List()
	if err != nil {
		return false
	}
	for _, j := range jobs {
		if j.State != job.StateInactive {
			return false
		}
	}
	return true
}

// RunUntilIdle advances the simulation until no jobs are running or
// queued, or until limit elapses. It returns the instant it stopped and
// whether the system drained.
func (c *Cluster) RunUntilIdle(limit time.Duration) (simtime.Time, bool) {
	c.advMu.Lock()
	defer c.advMu.Unlock()
	end := c.Sched.Now().Add(limit)
	if c.cfg.Engine == EngineEvent {
		// Event engine: jump from event to event; an idle stretch (or an
		// idle 50k-node fleet) costs nothing per tick because nothing is
		// scheduled for it.
		for {
			if c.drained() {
				return c.Sched.Now(), true
			}
			if !c.Sched.StepLimit(end) {
				// No events before the horizon: nothing can change state.
				c.Sched.AdvanceTo(end)
				return c.Sched.Now(), len(c.running) == 0
			}
		}
	}
	for c.Sched.Now() < end {
		if c.drained() {
			return c.Sched.Now(), true
		}
		// Advance one tick at a time; timers fire in-order.
		step := tick
		if remaining := end.Sub(c.Sched.Now()); remaining < step {
			step = remaining
		}
		c.Sched.Advance(step)
	}
	return c.Sched.Now(), len(c.running) == 0
}

// Close stops the simulation engine. It is safe to call concurrently
// with RunFor/RunUntilIdle from another goroutine: the engines are
// switched off immediately (no further job advances run), and Close then
// waits for any in-flight advance to drain before stopping the timers,
// so no callback can race the teardown.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.advMu.Lock()
	defer c.advMu.Unlock()
	if c.ticker != nil {
		c.ticker.Stop()
	}
	for _, rj := range c.running {
		rj.ev.Stop()
	}
	for _, si := range c.subs {
		for _, rj := range si.running {
			rj.ev.Stop()
		}
	}
}
