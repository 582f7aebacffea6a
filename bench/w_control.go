package main

import (
	"fmt"
	"math/rand"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
)

// controlLassen is the cap path and the simulator itself at the paper's
// scale: a 792-node Lassen under a cluster power bound, the power-aware
// dispatcher admitting against the same bound, powermgr's proportional
// split with the closed-loop controller retuning every 4 s, and a seeded
// queue of short jobs kept non-empty so jobs start and finish throughout.
// One operation is one control period of the whole fleet; the timed unit
// is Cluster.RunFor(4 s): one observe → retune → cap-push round, two
// sampling rounds, job progress and dispatch.
type controlLassen struct {
	c    *cluster.Cluster
	mons []*powermon.Module
	pm   *powermgr.Client
	src  *jobSource
	jobs *jobCounter

	budgetW   float64
	submitted int64
	overCap   int // status checkpoints where granted power exceeded the bound

	br                *brokerBracket
	starts0, finishes int64
	samples0          uint64
	ctl0              powermgr.ControllerStatus
}

const (
	controlNodes    = 792
	controlOp       = 4 * time.Second // powermgr's default controller interval
	controlRoundOps = 10
	controlWarmOps  = 50 // 200 simulated seconds: the machine is full and the first jobs have turned over
	// controlQueueDepth jobs are kept waiting, so a finish always finds
	// work to dispatch and the backfill policy has a queue to pick from.
	controlQueueDepth = 8
)

func (w *controlLassen) setup(e *env) error {
	nodes := controlNodes
	if e.o.Quick {
		nodes = 96
	}
	w.budgetW = nodeBudgetW * float64(nodes)
	c, err := newCluster(e, cluster.Config{
		Nodes:        nodes,
		SchedPolicy:  "power-aware",
		SchedBudgetW: w.budgetW,
	})
	if err != nil {
		return err
	}
	w.c = c
	if w.mons, err = loadMonitors(c, powermon.Config{}); err != nil {
		return err
	}
	if err := c.Inst.LoadModuleAll(func(int32) broker.Module {
		return managed(nodes, powermgr.ControllerRetune)
	}); err != nil {
		return err
	}
	w.pm = powermgr.NewClient(c.Inst.Root())
	w.jobs = countJobs(c.Inst.Root())
	maxNodes := 128
	if maxNodes > nodes/2 {
		maxNodes = nodes / 2
	}
	w.src, err = newJobSource(rand.New(rand.NewSource(e.rng.Int63())),
		queueShape{MinNodes: 2, MaxNodes: maxNodes, MinSec: 40, MaxSec: 300, FPPEvery: 10}, e.o.Queue)
	if err != nil {
		return err
	}
	if err := w.topUp(); err != nil {
		return err
	}
	for i := 0; i < controlWarmOps; i++ {
		c.RunFor(controlOp)
		if err := w.topUp(); err != nil {
			return err
		}
	}
	if w.jobs.finishes.Load() == 0 {
		return fmt.Errorf("no job finished during warm-up")
	}
	return nil
}

// topUp submits jobs until controlQueueDepth are waiting.
func (w *controlLassen) topUp() error {
	for w.submitted-w.jobs.starts.Load() < controlQueueDepth {
		if _, err := w.c.Submit(w.src.next()); err != nil {
			return err
		}
		w.submitted++
	}
	return nil
}

func (w *controlLassen) begin(e *env) {
	w.br = bracketBrokers(w.c)
	w.starts0, w.finishes = w.jobs.starts.Load(), w.jobs.finishes.Load()
	w.samples0 = totalSamples(w.mons)
	w.ctl0, _ = w.pm.Controller()
}

func (w *controlLassen) round(e *env) (int64, int64) {
	sp := e.tr.beginReq("round")
	defer e.tr.end(sp)
	var failed int64
	for i := 0; i < controlRoundOps; i++ {
		e.lat = append(e.lat, runFor(e, w.c, controlOp))
		if err := w.topUp(); err != nil {
			failed++
		}
	}
	// The invariant the whole cap path exists for, checked where an
	// operator would look: granted power never exceeds the bound.
	csp := e.tr.begin("powermgr.Status")
	_, _, allocs, err := w.pm.Status()
	e.tr.end(csp)
	granted := 0.0
	for _, a := range allocs {
		granted += a.JobLimitW
	}
	if err != nil || granted > w.budgetW*(1+1e-9) {
		w.overCap++
		failed++
	}
	return controlRoundOps, failed
}

func (w *controlLassen) end(e *env, ops int64, m metricSet) {
	w.br.end(w.c, ops, m)
	n := float64(ops)
	m.set("job.starts_per_op", float64(w.jobs.starts.Load()-w.starts0)/n)
	m.set("job.finishes_per_op", float64(w.jobs.finishes.Load()-w.finishes)/n)
	m.set("powermon.samples_per_op", float64(totalSamples(w.mons)-w.samples0)/n)
	if ctl, err := w.pm.Controller(); err == nil {
		m.set("powermgr.retunes_per_op", float64(ctl.Retunes-w.ctl0.Retunes)/n)
		m.set("powermgr.violations_per_op", float64(ctl.Violations-w.ctl0.Violations)/n)
	}
	if pf, err := w.pushFailures(); err == nil {
		m.set("powermgr.push_failures", float64(pf))
	}
}

// pushFailures reads the count of cap pushes that were never
// acknowledged out of the power-manager.status reply.
func (w *controlLassen) pushFailures() (uint64, error) {
	resp, err := w.c.Inst.Root().Call(msg.NodeAny, "power-manager.status", nil)
	if err != nil {
		return 0, err
	}
	var body struct {
		PushFailures uint64 `json:"push_failures"`
	}
	err = resp.Unmarshal(&body)
	return body.PushFailures, err
}

func (w *controlLassen) verify(e *env) error {
	if w.overCap > 0 {
		return fmt.Errorf("%d status checkpoints granted more than the %.0f W bound", w.overCap, w.budgetW)
	}
	pf, err := w.pushFailures()
	if err != nil {
		return err
	}
	if pf != 0 {
		return fmt.Errorf("%d cap pushes failed", pf)
	}
	recs, err := w.c.JM.List()
	if err != nil {
		return err
	}
	if int64(len(recs)) != w.submitted {
		return fmt.Errorf("job manager lists %d jobs, %d were submitted", len(recs), w.submitted)
	}
	running := 0
	for _, r := range recs {
		switch r.State {
		case job.StateRun:
			running++
		case job.StateSched, job.StateInactive:
		default:
			return fmt.Errorf("job %d in state %q", r.ID, r.State)
		}
	}
	if got := len(w.c.RunningJobs()); got != running {
		return fmt.Errorf("job manager has %d running jobs, the engine %d", running, got)
	}
	if starts := w.jobs.starts.Load() - w.starts0; !e.o.Quick && starts < 50 {
		return fmt.Errorf("only %d jobs started in the measured phase, want at least 50", starts)
	}
	return nil
}

func (w *controlLassen) close() {
	if w.jobs != nil {
		w.jobs.stop()
	}
	if w.c != nil {
		w.c.Close()
	}
}
