package cluster

import (
	"fmt"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/kvs"
)

// InstanceApp is the jobspec App value that turns a job into a nested
// user-level Flux instance instead of an application run. This is Flux's
// defining trick (§II-B): "When a user requests a job, they are allocated
// their own user-level Flux instance, allowing them to customize the
// scheduling policy within their instance." The sub-instance gets its own
// brokers (one per allocated node), its own KVS and job manager, and the
// user may load their own power modules into it — user-level telemetry
// and power-policy customization, exactly as §I claims.
const InstanceApp = "flux"

// SubInstance is a user-level Flux instance running inside a parent job's
// allocation. Its broker ranks 0..n-1 map onto the parent job's nodes.
type SubInstance struct {
	// JobID is the parent job holding the allocation.
	JobID uint64
	// Inst is the nested broker instance; load user modules here.
	Inst *broker.Instance
	// JM submits jobs into the nested instance.
	JM *job.Client
	jobSet

	c      *Cluster
	ranks  []int32 // parent ranks, indexed by sub-instance rank
	closed bool
}

// SpawnSubInstance submits an allocation-holding job (App = "flux") and
// boots a nested Flux instance over its nodes with the default FCFS
// scheduling. The parent job must be schedulable immediately: a queued
// allocation has no nodes to boot brokers on.
func (c *Cluster) SpawnSubInstance(spec job.Spec) (*SubInstance, error) {
	return c.SpawnSubInstanceWith(spec, job.Options{})
}

// SpawnSubInstanceWith boots a nested instance whose job manager runs
// the given scheduling options — this is how "different users can choose
// different power-aware scheduling policies within their respective
// allocations" (§I): each allocation's nested job manager carries its
// own policy and budget.
func (c *Cluster) SpawnSubInstanceWith(spec job.Spec, opts job.Options) (*SubInstance, error) {
	spec.App = InstanceApp
	if spec.Name == "" {
		spec.Name = "flux-instance"
	}
	id, err := c.JM.Submit(spec)
	if err != nil {
		return nil, err
	}
	rec, err := c.JM.Info(id)
	if err != nil {
		return nil, err
	}
	if rec.State != job.StateRun {
		// Queued: cancel to avoid a zombie allocation request.
		_ = c.JM.Cancel(id)
		return nil, fmt.Errorf("cluster: sub-instance needs %d free nodes", spec.Nodes)
	}
	ranks := append([]int32(nil), rec.Ranks...)
	inst, err := broker.NewInstance(broker.InstanceOptions{
		Size:      len(ranks),
		Scheduler: c.Sched,
		Local: func(subRank int32) any {
			return c.nodes[ranks[subRank]]
		},
	})
	if err != nil {
		_, _ = c.JM.Finish(id)
		return nil, err
	}
	if err := inst.Root().LoadModule(kvs.New()); err != nil {
		return nil, err
	}
	subRanks := make([]int32, len(ranks))
	for i := range subRanks {
		subRanks[i] = int32(i)
	}
	if opts.HW.Sockets == 0 {
		opts.HW = c.nodes[0].Config()
	}
	if err := inst.Root().LoadModule(job.NewManagerWith(subRanks, opts)); err != nil {
		return nil, err
	}
	si := &SubInstance{
		JobID:  id,
		Inst:   inst,
		JM:     job.NewClient(inst.Root()),
		jobSet: newJobSet(),
		c:      c,
		ranks:  ranks,
	}
	inst.Root().Subscribe(job.EventStart, onRecord(si.onSubJobStart))
	inst.Root().Subscribe(job.EventFinish, onRecord(si.finish))
	c.subs[id] = si
	return si, nil
}

// Submit queues a job inside the user-level instance.
func (si *SubInstance) Submit(spec job.Spec) (uint64, error) {
	if si.closed {
		return 0, fmt.Errorf("cluster: sub-instance for job %d is closed", si.JobID)
	}
	return si.JM.Submit(spec)
}

// Ranks returns the parent ranks backing this instance.
func (si *SubInstance) Ranks() []int32 { return append([]int32(nil), si.ranks...) }

// Idle reports whether no sub-jobs are running or queued. A job list
// that cannot be read counts as not idle.
func (si *SubInstance) Idle() bool { return si.drained(si.JM) }

// Close tears the user-level instance down and releases the parent
// allocation. Running sub-jobs are abandoned (their nodes idle), like
// an allocation expiring.
func (si *SubInstance) Close() error {
	if si.closed {
		return nil
	}
	si.closed = true
	delete(si.c.subs, si.JobID)
	clear(si.running)
	_, err := si.c.JM.Finish(si.JobID)
	return err
}

// onSubJobStart instantiates a sub-job's application model on the
// parent nodes its sub-instance ranks map to.
func (si *SubInstance) onSubJobStart(rec job.Record) {
	instance, err := si.c.newInstance(rec, si.c.cfg.Seed+int64(si.JobID)*31337+int64(rec.ID)*99991)
	if err != nil {
		_, _ = si.JM.Finish(rec.ID)
		return
	}
	si.start(rec, si.c.nodesOf(rec.Ranks, si.ranks), instance)
}
