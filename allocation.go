package fluxpower

import (
	"errors"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
)

// Allocation is a user-level Flux instance running inside the system
// instance — the paper's hierarchical model (§II-B): "When a user
// requests a job, they are allocated their own user-level Flux instance,
// allowing them to customize the scheduling policy within their
// instance." The user submits their own jobs into the allocation and may
// load their own power manager with their own budget and policy, without
// any privilege on the system instance.
type Allocation struct {
	fc *Cluster
	si *cluster.SubInstance
	pm *powermgr.Client
}

// SpawnAllocation requests nodes from the system instance and boots a
// user-level Flux instance on them with the default FCFS scheduling
// policy. The nodes must be free now (an allocation cannot boot brokers
// on nodes it does not hold). Use SpawnAllocationPolicy to pick a
// different scheduling policy for the allocation.
func (fc *Cluster) SpawnAllocation(name string, nodes int) (*Allocation, error) {
	return fc.SpawnAllocationPolicy(name, nodes, "", 0)
}

// SpawnAllocationPolicy boots an allocation whose own job manager runs
// the named scheduling policy ("fcfs", "power-aware", or any name
// registered with the sched package) against the given power budget in
// watts. This is the paper's §I claim in API form: "different users can
// choose different power-aware scheduling policies within their
// respective allocations" — the policy and budget govern only the
// allocation's nested job manager, not the system instance. A zero
// budget means node-count admission only.
func (fc *Cluster) SpawnAllocationPolicy(name string, nodes int, policy string, budgetW float64) (*Allocation, error) {
	si, err := fc.c.SpawnSubInstanceWith(
		job.Spec{Name: name, Nodes: nodes},
		job.Options{Policy: policy, BudgetW: budgetW},
	)
	if err != nil {
		return nil, err
	}
	return &Allocation{fc: fc, si: si}, nil
}

// ID returns the system-instance job that holds this allocation.
func (a *Allocation) ID() JobID { return a.si.JobID }

// Ranks returns the system ranks backing the allocation.
func (a *Allocation) Ranks() []int32 { return a.si.Ranks() }

// LoadPowerManager installs the user's own flux-power-manager inside the
// allocation: their policy, their budget, enforced only on their nodes.
func (a *Allocation) LoadPowerManager(policy Policy, budgetW float64) error {
	cfg := powermgr.Config{Policy: policy, GlobalCapW: budgetW}
	if policy == PolicyStatic {
		return errors.New("fluxpower: static capping is a system-instance concern; use proportional or fpp")
	}
	if err := a.si.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermgr.New(cfg)
	}); err != nil {
		return err
	}
	a.pm = powermgr.NewClient(a.si.Inst.Root())
	return nil
}

// LoadPowerMonitor installs a user-level flux-power-monitor inside the
// allocation (user-level telemetry, independent of the system monitor).
func (a *Allocation) LoadPowerMonitor(cfg powermon.Config) error {
	return a.si.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(cfg)
	})
}

// Submit queues a job inside the allocation. The allocation's own job
// manager schedules it over the allocation's nodes using whatever
// sched.Policy the allocation was spawned with — FCFS by default, or
// the policy given to SpawnAllocationPolicy.
func (a *Allocation) Submit(spec JobSpec) (JobID, error) {
	return a.si.Submit(job.Spec{
		Name:        spec.Name,
		App:         spec.App,
		Nodes:       spec.Nodes,
		SizeFactor:  spec.SizeFactor,
		RepFactor:   spec.RepFactor,
		PowerPolicy: string(spec.PowerPolicy),
	})
}

// Report returns a sub-job's record and power accounting.
func (a *Allocation) Report(id JobID) (JobReport, error) {
	return jobReport(a.si.JM, a.si.Stats, id)
}

// PowerStatus reports the user manager's allocation table (nil manager =
// empty).
func (a *Allocation) PowerStatus() (Policy, float64, []PowerAllocation, error) {
	return powerStatus(a.pm)
}

// Idle reports whether the allocation has no running or queued jobs.
func (a *Allocation) Idle() bool { return a.si.Idle() }

// Close releases the allocation back to the system instance.
func (a *Allocation) Close() error { return a.si.Close() }
