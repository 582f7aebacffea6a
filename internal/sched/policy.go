package sched

import (
	"fmt"
	"sync"
)

// Policy names accepted by New.
const (
	PolicyFCFS       = "fcfs"
	PolicyPowerAware = "power-aware"
)

// Job is the policy's view of one queued job: identity, size, and the
// predictor's estimate of its per-node draw once running.
type Job struct {
	ID    uint64
	App   string
	Nodes int
	// PredNodeW is the predicted per-node power draw in watts. The
	// dispatcher fills it from the Predictor before consulting the
	// policy; PredNodeW*Nodes is the job's predicted fleet contribution.
	PredNodeW float64
	// SubmitSec is the submission time, for age-aware policies.
	SubmitSec float64
}

// TotalW is the job's predicted whole-job draw.
func (j Job) TotalW() float64 { return j.PredNodeW * float64(j.Nodes) }

// Cluster is the dispatch-time cluster state a policy decides against.
type Cluster struct {
	// FreeNodes is the number of unallocated nodes.
	FreeNodes int
	// BudgetW is the cluster power budget in watts; 0 means unlimited.
	BudgetW float64
	// PredictedW is the predicted fleet draw of currently running jobs.
	PredictedW float64
}

// Fits reports whether a job fits the cluster's free nodes and, when a
// budget is set, its remaining predicted power headroom.
func (c Cluster) Fits(j Job) bool {
	if j.Nodes > c.FreeNodes {
		return false
	}
	return c.BudgetW <= 0 || c.PredictedW+j.TotalW() <= c.BudgetW
}

// Policy selects which queued jobs to start now. Select returns job IDs
// drawn from queue, in start order; it must not mutate queue. A policy
// is a pure function of the visible queue and cluster state — no hidden
// channels — so alternative implementations (including learned ones)
// can substitute without touching the dispatcher. Policies are advisory:
// the Dispatcher re-checks node availability and trims any selection
// that would push predicted fleet draw over the budget, so a defective
// policy degrades throughput, never the power envelope.
type Policy interface {
	Name() string
	Select(queue []Job, c Cluster) []uint64
}

// New returns the named built-in policy, defaulting to FCFS for "".
func New(name string) (Policy, error) {
	switch name {
	case "", PolicyFCFS:
		return FCFS{}, nil
	case PolicyPowerAware:
		return PowerAware{}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (have %s, %s)",
			name, PolicyFCFS, PolicyPowerAware)
	}
}

// FCFS is the baseline policy: strict submission order, the queue head
// blocks later jobs (no backfill), and power is ignored — it models a
// conventional resource manager. Under a power budget the dispatcher's
// central guard still applies, so FCFS never violates the budget either;
// it just stalls instead of backfilling around the blockage.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return PolicyFCFS }

// Select implements Policy: admit from the head while nodes last.
func (FCFS) Select(queue []Job, c Cluster) []uint64 {
	var picks []uint64
	free := c.FreeNodes
	for _, j := range queue {
		if j.Nodes > free {
			break
		}
		free -= j.Nodes
		picks = append(picks, j.ID)
	}
	return picks
}

// PowerAware admits jobs in submission order against both free nodes
// and predicted power headroom, and backfills past a head-of-line job
// that does not fit: later, smaller (in nodes or watts) jobs start when
// they fit the remaining headroom. Backfill never overtakes on power a
// head job could have used — the head's failure leaves its demand
// unreserved, which favors utilization over strict fairness; the queue
// experiment quantifies the trade.
type PowerAware struct{}

// Name implements Policy.
func (PowerAware) Name() string { return PolicyPowerAware }

// Select implements Policy.
func (PowerAware) Select(queue []Job, c Cluster) []uint64 {
	var picks []uint64
	for _, j := range queue {
		if !c.Fits(j) {
			continue // backfill: keep scanning smaller jobs
		}
		c.FreeNodes -= j.Nodes
		c.PredictedW += j.TotalW()
		picks = append(picks, j.ID)
	}
	return picks
}

// Admit is one dispatch decision: a job and the ranks it received.
type Admit struct {
	ID    uint64
	Ranks []int32
}

// Dispatcher turns a policy's advisory selection into actual node
// allocations while enforcing the budget invariant centrally: after any
// sequence of Dispatch/Release calls, the predicted draw of admitted
// jobs never exceeds BudgetW (when set), regardless of what the policy
// returned. Safe for concurrent use.
type Dispatcher struct {
	mu      sync.Mutex
	pool    *Pool
	policy  Policy
	budgetW float64

	predictedW float64
	jobW       map[uint64]float64

	budgetTrims  uint64 // policy picks dropped by the budget guard
	nodeTrims    uint64 // policy picks dropped for missing/duplicate nodes
	dispatches   uint64
	jobsAdmitted uint64
}

// NewDispatcher builds a dispatcher over the pool with the given policy
// and budget (0 = unlimited).
func NewDispatcher(pool *Pool, policy Policy, budgetW float64) *Dispatcher {
	return &Dispatcher{
		pool:    pool,
		policy:  policy,
		budgetW: budgetW,
		jobW:    make(map[uint64]float64),
	}
}

// Dispatch consults the policy over the queue and admits the surviving
// selection, allocating nodes for each admitted job. Unknown IDs,
// duplicates, jobs the pool cannot seat, and — decisively — jobs whose
// predicted draw would exceed the budget are trimmed here, not trusted
// to the policy.
func (d *Dispatcher) Dispatch(queue []Job) []Admit {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dispatches++

	picks := d.policy.Select(queue, Cluster{
		FreeNodes:  d.pool.FreeCount(),
		BudgetW:    d.budgetW,
		PredictedW: d.predictedW,
	})

	byID := make(map[uint64]Job, len(queue))
	for _, j := range queue {
		byID[j.ID] = j
	}

	var admits []Admit
	for _, id := range picks {
		j, ok := byID[id]
		if !ok {
			d.nodeTrims++
			continue // unknown or duplicate pick
		}
		delete(byID, id)
		if d.budgetW > 0 && d.predictedW+j.TotalW() > d.budgetW {
			d.budgetTrims++
			continue
		}
		ranks, ok := d.pool.Alloc(j.Nodes)
		if !ok {
			d.nodeTrims++
			continue
		}
		d.predictedW += j.TotalW()
		d.jobW[j.ID] = j.TotalW()
		d.jobsAdmitted++
		admits = append(admits, Admit{ID: j.ID, Ranks: ranks})
	}
	return admits
}

// Release returns a finished job's nodes and retires its predicted draw.
func (d *Dispatcher) Release(id uint64, ranks []int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pool.Release(ranks)
	d.predictedW -= d.jobW[id]
	if d.predictedW < 0 {
		d.predictedW = 0
	}
	delete(d.jobW, id)
}

// Stats is a point-in-time dispatcher summary for status RPCs.
type Stats struct {
	Policy       string  `json:"policy"`
	BudgetW      float64 `json:"budget_w,omitempty"`
	PredictedW   float64 `json:"predicted_w"`
	FreeNodes    int     `json:"free_nodes"`
	RunningJobs  int     `json:"running_jobs"`
	Dispatches   uint64  `json:"dispatches"`
	JobsAdmitted uint64  `json:"jobs_admitted"`
	BudgetTrims  uint64  `json:"budget_trims"`
	NodeTrims    uint64  `json:"node_trims"`
}

// Stats snapshots the dispatcher.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Policy:       d.policy.Name(),
		BudgetW:      d.budgetW,
		PredictedW:   d.predictedW,
		FreeNodes:    d.pool.FreeCount(),
		RunningJobs:  len(d.jobW),
		Dispatches:   d.dispatches,
		JobsAdmitted: d.jobsAdmitted,
		BudgetTrims:  d.budgetTrims,
		NodeTrims:    d.nodeTrims,
	}
}
