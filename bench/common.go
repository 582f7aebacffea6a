package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
)

// Sizes every workload shares. The raw ring is always set explicitly:
// the module's default of 100 000 samples is allocated eagerly per rank,
// which at 792 ranks costs tens of seconds of set-up and gigabytes.
const (
	// bufferSamples is ~17 minutes at the paper's 2 s cadence: short
	// enough that a set-up of a few seconds wraps it, so the ring is
	// measured full and older windows have to come from tiers or disk.
	bufferSamples = 512
	// blockSamples seals a tsdb block every 500 simulated seconds: 50
	// RunFor(10 s) operations, so a round holds a whole number of seals.
	blockSamples = 250
	// nodeBudgetW is the per-node share of the cluster power bound on the
	// managed fleet: below the 3050 W Lassen peak, so caps bind.
	nodeBudgetW = 1125
)

// newCluster builds a Lassen cluster on the default (tick) engine, with
// the traced link seam installed when the run is traced.
func newCluster(e *env, cfg cluster.Config) (*cluster.Cluster, error) {
	cfg.System = cluster.Lassen
	cfg.Seed = e.o.Seed
	cfg.WrapLink = e.tr.wrapLink()
	return cluster.New(cfg)
}

// loadMonitors loads one powermon module per rank and returns them, so
// the benchmark can read their public counters.
func loadMonitors(c *cluster.Cluster, cfg powermon.Config) ([]*powermon.Module, error) {
	cfg.BufferSamples = bufferSamples
	mons := make([]*powermon.Module, c.NodeCount())
	err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		mons[rank] = powermon.New(cfg)
		return mons[rank]
	})
	return mons, err
}

// managed is the power manager as the managed fleets run it: the
// proportional split under a bound of nodeBudgetW per node, with the
// closed-loop controller in the given mode.
func managed(nodes int, mode string) *powermgr.Manager {
	return powermgr.New(powermgr.Config{
		Policy:     powermgr.PolicyProportional,
		GlobalCapW: nodeBudgetW * float64(nodes),
		Controller: powermgr.ControllerConfig{Mode: mode},
	})
}

// runFor advances the cluster by d and returns the wall time in
// milliseconds — the timed unit of the simulation-driven workloads.
func runFor(e *env, c *cluster.Cluster, d time.Duration) float64 {
	sp := e.tr.begin("cluster.RunFor")
	t := time.Now()
	c.RunFor(d)
	ms := float64(time.Since(t)) / float64(time.Millisecond)
	e.tr.end(sp)
	return ms
}

func totalSamples(mons []*powermon.Module) uint64 {
	var n uint64
	for _, m := range mons {
		n += m.Samples()
	}
	return n
}

// fillWithJobs puts every node inside a running job: jobs jobs of equal
// size (the first few one node larger when the division leaves a rest),
// their applications and durations drawn from src. The jobs are
// stretched far past any run, so the set of running jobs is fixed for
// the whole measurement.
func fillWithJobs(c *cluster.Cluster, src *jobSource, jobs int) ([]uint64, error) {
	ids := make([]uint64, 0, jobs)
	for i := 0; i < jobs; i++ {
		spec := src.next()
		spec.Nodes = c.NodeCount() / jobs
		if i < c.NodeCount()%jobs {
			spec.Nodes++
		}
		spec.SizeFactor *= 1e6
		id, err := c.Submit(spec)
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", spec.Name, err)
		}
		ids = append(ids, id)
	}
	if got := len(c.RunningJobs()); got != jobs {
		return nil, fmt.Errorf("%d of %d jobs running after fill", got, jobs)
	}
	return ids, nil
}

// jobCounter counts job starts and finishes off the root broker's event
// stream, the same way the power modules learn of them.
type jobCounter struct {
	starts, finishes atomic.Int64
	unsub            []func()
}

func countJobs(root *broker.Broker) *jobCounter {
	jc := &jobCounter{}
	jc.unsub = append(jc.unsub,
		root.Subscribe(job.EventStart, func(*msg.Message) { jc.starts.Add(1) }),
		root.Subscribe(job.EventFinish, func(*msg.Message) { jc.finishes.Add(1) }))
	return jc
}

func (jc *jobCounter) stop() {
	for _, u := range jc.unsub {
		u()
	}
}

// brokerBracket reads the broker counters around a measured phase: RPCs
// issued and events delivered at the root (where every fan-out starts
// and every event is sequenced), timeouts on every rank.
type brokerBracket struct {
	inst     *broker.Instance
	root     broker.Stats
	timeouts uint64
	simStart time.Duration
	wall     time.Time
}

func (b *brokerBracket) timeoutsNow() uint64 {
	var n uint64
	for _, br := range b.inst.Brokers {
		n += br.Stats().RPCTimeouts
	}
	return n
}

func bracketBrokers(c *cluster.Cluster) *brokerBracket {
	b := &brokerBracket{inst: c.Inst, root: c.Inst.Root().Stats()}
	b.timeouts = b.timeoutsNow()
	b.simStart = c.Now().Duration()
	b.wall = time.Now()
	return b
}

func (b *brokerBracket) end(c *cluster.Cluster, ops int64, m metricSet) {
	wall := time.Since(b.wall)
	now := c.Inst.Root().Stats()
	m.set("broker.rpcs_per_op", float64(now.RPCsIssued-b.root.RPCsIssued)/float64(ops))
	m.set("broker.events_delivered_per_op", float64(now.EventsDelivered-b.root.EventsDelivered)/float64(ops))
	m.set("broker.rpc_timeouts", float64(b.timeoutsNow()-b.timeouts))
	m.set("cluster.sim_s_per_wall_s", (c.Now().Duration()-b.simStart).Seconds()/wall.Seconds())
}
