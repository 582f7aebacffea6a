package experiments

import (
	"fmt"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/sched"
)

// PolicyScheme is one scheduling/control combination the -exp policy
// comparison runs: a dispatch policy in the job manager plus a
// controller mode in the power manager, both against the same cluster
// power budget.
type PolicyScheme struct {
	// Name labels the scheme in the output table.
	Name string
	// Sched is the job manager's dispatch policy (sched.New name).
	Sched string
	// Controller is the powermgr closed-loop mode; observe counts cap
	// violations on the same definition retune does, so the violation
	// columns are comparable across schemes.
	Controller string
}

// PolicySchemes are the three schemes the experiment compares:
//
//   - fcfs: the baseline — in-order dispatch, head-of-line blocking on
//     both nodes and predicted power, static proportional caps.
//   - power-aware: predicted-power backfill — small low-power jobs start
//     in the power headroom a blocked big job leaves; caps still static.
//   - closed-loop: power-aware dispatch plus the PI budget controller
//     reclaiming slack from under-cap jobs and granting it to throttled
//     ones every interval.
func PolicySchemes() []PolicyScheme {
	return []PolicyScheme{
		{Name: "fcfs", Sched: sched.PolicyFCFS, Controller: powermgr.ControllerObserve},
		{Name: "power-aware", Sched: sched.PolicyPowerAware, Controller: powermgr.ControllerObserve},
		{Name: "closed-loop", Sched: sched.PolicyPowerAware, Controller: powermgr.ControllerRetune},
	}
}

// PolicyJobMix is the workload every scheme runs: a power-hungry LAMMPS
// pair that cannot run concurrently inside the budget, with long
// low-power Laghos jobs and two small fillers queued behind them. Under
// FCFS the second LAMMPS blocks the queue head on predicted power, so
// everything behind it waits; the power-aware schemes backfill the
// Laghos jobs into the headroom immediately. The order is deterministic
// because the order is the point.
func PolicyJobMix(quick bool) []job.Spec {
	rep, size := 4.0, 45.0
	if quick {
		rep, size = 2, 12
	}
	return []job.Spec{
		{Name: "lammps-0", App: "lammps", Nodes: 8, RepFactor: rep},
		{Name: "lammps-1", App: "lammps", Nodes: 8, RepFactor: rep},
		{Name: "laghos-0", App: "laghos", Nodes: 4, SizeFactor: size},
		{Name: "laghos-1", App: "laghos", Nodes: 4, SizeFactor: size},
		{Name: "quicksilver-0", App: "quicksilver", Nodes: 2, SizeFactor: quickOr(quick, 4, 10)},
		{Name: "gemm-0", App: "gemm", Nodes: 2, RepFactor: 1},
	}
}

func quickOr(quick bool, q, full float64) float64 {
	if quick {
		return q
	}
	return full
}

// PolicyRow is one scheme's outcome.
type PolicyRow struct {
	Scheme           string
	MakespanSec      float64
	ThroughputPerHr  float64 // completed jobs per simulated hour
	AvgQueueWaitSec  float64
	MaxQueueWaitSec  float64
	Rounds           uint64 // controller observation rounds completed
	Violations       uint64 // controller rounds with a job > cap+margin
	Sustained        uint64 // violations lasting >= 3 consecutive rounds
	ReclaimedKW      float64
	GrantedKW        float64
	TotalEnergyKJ    float64 // sum over jobs of per-node energy x nodes
	BudgetTrims      uint64  // dispatcher picks trimmed by the budget gate
	MaxFleetCapKW    float64 // highest sum-of-caps checkpoint seen
	BudgetExceededAt int     // checkpoints where caps exceeded budget (must be 0)
}

// ViolationRate is the row's cap violations per controller round — the
// CI-gated rate for the closed-loop scheme.
func (row PolicyRow) ViolationRate() float64 {
	if row.Rounds == 0 {
		return 0
	}
	return float64(row.Violations) / float64(row.Rounds)
}

// PolicyResult is the FCFS vs power-aware vs closed-loop comparison.
type PolicyResult struct {
	Nodes   int
	BudgetW float64
	Jobs    int
	Rows    []PolicyRow
}

// Row returns the named scheme's row.
func (r *PolicyResult) Row(name string) (PolicyRow, bool) {
	for _, row := range r.Rows {
		if row.Scheme == name {
			return row, true
		}
	}
	return PolicyRow{}, false
}

// policyControllerCfg is the controller tuning the experiment uses: a
// shorter interval and snappier gains than the defaults so grants to a
// throttled job converge within the 3 sustained rounds — the loop must
// clear a violation before it counts as sustained, which is the gated
// acceptance bar. The headroom is deliberately generous: a job throttled
// at its cap draws exactly its cap, so the tracking error the loop can
// see is at most the headroom — a small headroom makes re-grants crawl
// and leaves phased applications throttled at every high-phase entry.
func policyControllerCfg(mode string) powermgr.ControllerConfig {
	return powermgr.ControllerConfig{
		Mode:      mode,
		Interval:  2 * time.Second,
		Kp:        1.0,
		HeadroomW: 150,
		MaxStepW:  400,
	}
}

// Policy runs the same job queue on a 16-node power-constrained Lassen
// allocation under each scheme and reports scheduling and control
// metrics side by side. The budget (18 kW, 1125 W/node when full) is
// chosen so one LAMMPS fits alongside the Laghos jobs but two LAMMPS
// do not, and so a full machine throttles LAMMPS unless the closed loop
// reclaims Laghos slack.
func Policy(opts Options) (*PolicyResult, error) {
	opts = opts.withDefaults()
	const nodes = 16
	const budgetW = 18000
	specs := PolicyJobMix(opts.Quick)
	res := &PolicyResult{Nodes: nodes, BudgetW: budgetW, Jobs: len(specs)}
	for _, scheme := range PolicySchemes() {
		row, err := policyOne(scheme, specs, opts)
		if err != nil {
			return nil, fmt.Errorf("policy: scheme %s: %w", scheme.Name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func policyOne(scheme PolicyScheme, specs []job.Spec, opts Options) (PolicyRow, error) {
	const nodes = 16
	const budgetW = 18000
	row := PolicyRow{Scheme: scheme.Name}
	mcfg := powermgr.Config{
		Policy:     powermgr.PolicyProportional,
		GlobalCapW: budgetW,
		Controller: policyControllerCfg(scheme.Controller),
	}
	e, err := newEnv(envConfig{
		system:       cluster.Lassen,
		nodes:        nodes,
		seed:         opts.Seed,
		sensorNoiseW: 8,
		withMonitor:  true,
		manager:      &mcfg,
		schedPolicy:  scheme.Sched,
		schedBudgetW: budgetW,
	})
	if err != nil {
		return row, err
	}
	defer e.close()

	ids := make([]uint64, 0, len(specs))
	firstSubmit := e.c.Now().Seconds()
	for _, spec := range specs {
		id, err := e.c.Submit(spec)
		if err != nil {
			return row, fmt.Errorf("submit %s: %w", spec.Name, err)
		}
		ids = append(ids, id)
	}

	// Drain in slices, checkpointing the fleet's sum of caps against the
	// budget: no scheme may ever let caps exceed the cluster cap.
	deadline := e.c.Now().Add(4 * time.Hour)
	for {
		e.c.RunFor(10 * time.Second)
		if _, _, allocs, err := e.pm.Status(); err == nil {
			total := 0.0
			for _, a := range allocs {
				total += a.PerNodeW * float64(len(a.Ranks))
			}
			if total/1000 > row.MaxFleetCapKW {
				row.MaxFleetCapKW = total / 1000
			}
			if total > budgetW+1e-6 {
				row.BudgetExceededAt++
			}
		}
		if idle(e.c) {
			break
		}
		if e.c.Now().Seconds() > deadline.Seconds() {
			return row, fmt.Errorf("queue did not drain within 4 simulated hours")
		}
	}

	var lastEnd float64
	for i, id := range ids {
		st, ok := e.c.Stats(id)
		if !ok {
			return row, fmt.Errorf("job %s has no stats", specs[i].Name)
		}
		if st.EndSec > lastEnd {
			lastEnd = st.EndSec
		}
		row.TotalEnergyKJ += st.EnergyPerNodeJ * float64(st.Nodes) / 1000
	}
	row.MakespanSec = lastEnd - firstSubmit
	if row.MakespanSec > 0 {
		row.ThroughputPerHr = float64(len(ids)) / row.MakespanSec * 3600
	}

	ss, err := job.NewClient(e.c.Inst.Root()).Sched()
	if err != nil {
		return row, err
	}
	row.AvgQueueWaitSec = ss.AvgQueueWaitSec
	row.MaxQueueWaitSec = ss.MaxQueueWaitSec
	row.BudgetTrims = ss.BudgetTrims

	cs, err := e.pm.Controller()
	if err != nil {
		return row, err
	}
	row.Rounds = cs.Rounds
	row.Violations = cs.Violations
	row.Sustained = cs.Sustained
	row.ReclaimedKW = cs.ReclaimedWTotal / 1000
	row.GrantedKW = cs.GrantedWTotal / 1000
	return row, nil
}

// idle reports whether no jobs are running or queued.
func idle(c *cluster.Cluster) bool {
	if len(c.RunningJobs()) > 0 {
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

func (r *PolicyResult) tabular() ([]string, [][]string) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheme,
			f0(row.MakespanSec),
			f1(row.ThroughputPerHr),
			f0(row.AvgQueueWaitSec),
			fmt.Sprintf("%d", row.Violations),
			fmt.Sprintf("%d", row.Sustained),
			f1(row.ReclaimedKW),
			f1(row.GrantedKW),
			f0(row.TotalEnergyKJ),
			fmt.Sprintf("%d", row.BudgetTrims),
		})
	}
	return []string{
		"scheme", "makespan_s", "jobs_per_hr", "avg_wait_s",
		"violations", "sustained", "reclaimed_kW", "granted_kW",
		"energy_kJ", "budget_trims",
	}, rows
}

// Render prints the comparison.
func (r *PolicyResult) Render() string {
	header, rows := r.tabular()
	out := fmt.Sprintf("Policy: FCFS vs power-aware vs closed-loop (%d jobs, %d-node Lassen, %.0f kW budget)\n",
		r.Jobs, r.Nodes, r.BudgetW/1000)
	out += table(header, rows)
	out += "violations counts controller rounds where a job drew > cap+margin; sustained\n"
	out += "counts violations lasting >= 3 consecutive rounds. budget_trims counts dispatcher\n"
	out += "picks deferred by the predicted-power admission gate. The closed loop must beat\n"
	out += "FCFS on makespan at the same budget with zero sustained violations.\n"
	return out
}

// RenderCSV emits the comparison as CSV for plotting.
func (r *PolicyResult) RenderCSV() string {
	header, rows := r.tabular()
	return csvTable(header, rows)
}
