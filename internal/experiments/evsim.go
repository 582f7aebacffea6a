package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/job"
)

// EvsimRow is one fleet size of the simulation-core scaling benchmark:
// the host wall-clock cost of simulating one second of cluster time,
// with the active-job count held fixed while idle nodes grow.
type EvsimRow struct {
	Nodes      int
	ActiveJobs int
	SimSec     float64
	// WallMs is the host milliseconds spent advancing the measurement
	// window (cluster construction excluded).
	WallMs float64
	// MsPerSimSec normalizes WallMs to wall milliseconds per simulated
	// second.
	MsPerSimSec float64
	// Ratio is this row's cost relative to the smallest fleet's — the
	// "flat cost" number the suite gates at 3x.
	Ratio float64
}

// EvsimResult is the simulation-core scaling benchmark.
type EvsimResult struct {
	Rows []EvsimRow
	// MaxRatio is the gate: the largest Ratio observed (how much the
	// per-simulated-second cost grew from the smallest to the largest
	// fleet at fixed active work).
	MaxRatio float64
}

// evsimMaxRatio is the acceptance bound: growing the idle fleet 50x may
// cost at most this factor in wall-clock per simulated second. The
// fixed-step core advances running jobs only, and module timers only
// fire where modules are loaded, so its cost follows active work and
// stays near 1x; a core that touched every node each step would blow
// far past it.
const evsimMaxRatio = 3.0

// Evsim measures wall-clock-per-simulated-second as idle nodes grow with
// the active-job count pinned. Each fleet size runs the same 64 two-node
// jobs (long GEMMs that never finish inside the window); only the
// simulation window is timed, after one untimed base-size run. It errors when the cost is not flat
// (MaxRatio above 3x), which is what gates the benchmark in CI.
func Evsim(o Options) (*EvsimResult, error) {
	o = o.withDefaults()
	sizes := []int{1000, 8000, 50000}
	simWindow := 30 * time.Second
	if o.Quick {
		sizes = []int{1000, 4000}
		simWindow = 10 * time.Second
	}
	const activeJobs = 64
	// One untimed window at the base size first: the process's first
	// cluster pays its warm-up (heap growth, first-use allocations), and
	// a base row that absorbed it would make every ratio look flatter.
	if _, err := evsimOne(sizes[0], activeJobs, o.Seed, simWindow); err != nil {
		return nil, fmt.Errorf("evsim: warm-up: %w", err)
	}
	res := &EvsimResult{}
	for _, n := range sizes {
		row := EvsimRow{Nodes: n, ActiveJobs: activeJobs, SimSec: simWindow.Seconds()}
		var err error
		if row.WallMs, err = evsimOne(n, activeJobs, o.Seed, simWindow); err != nil {
			return nil, fmt.Errorf("evsim: %d nodes: %w", n, err)
		}
		row.MsPerSimSec = row.WallMs / row.SimSec
		res.Rows = append(res.Rows, row)
	}
	base := res.Rows[0].MsPerSimSec
	for i := range res.Rows {
		if base > 0 {
			res.Rows[i].Ratio = res.Rows[i].MsPerSimSec / base
		}
		res.MaxRatio = max(res.MaxRatio, res.Rows[i].Ratio)
	}
	if res.MaxRatio > evsimMaxRatio {
		return res, fmt.Errorf("evsim: cost grew %.2fx from %d to the largest fleet (gate %.1fx): %s",
			res.MaxRatio, sizes[0], evsimMaxRatio, res.RenderCSV())
	}
	return res, nil
}

// evsimOne builds one cluster, starts the fixed active set, and times a
// RunFor window.
func evsimOne(nodes, activeJobs int, seed int64, window time.Duration) (float64, error) {
	c, err := cluster.New(cluster.Config{
		System: cluster.Lassen,
		Nodes:  nodes,
		Seed:   seed,
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for i := 0; i < activeJobs; i++ {
		// RepFactor 100 GEMMs run for hours of simulated time: the active
		// set stays exactly activeJobs for the whole window.
		if _, err := c.Submit(job.Spec{App: "gemm", Nodes: 2, RepFactor: 100}); err != nil {
			return 0, err
		}
	}
	c.RunFor(time.Second) // warm-up: dispatch, first demand installs
	start := time.Now()
	c.RunFor(window)
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}

func (r *EvsimResult) tabular() ([]string, [][]string) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d", row.ActiveJobs),
			f0(row.SimSec),
			f2(row.MsPerSimSec),
			f2(row.Ratio),
		})
	}
	return []string{"nodes", "active_jobs", "sim_s", "wall_ms_per_sim_s", "ratio_vs_base"}, rows
}

// Render prints the benchmark.
func (r *EvsimResult) Render() string {
	header, rows := r.tabular()
	return "Evsim: wall-clock cost per simulated second vs fleet size (fixed 64 active jobs)\n" +
		table(header, rows) +
		fmt.Sprintf("cost follows active work, not fleet size: max growth %.2fx (gate %.1fx).\n",
			r.MaxRatio, evsimMaxRatio)
}

// RenderCSV emits the benchmark as CSV.
func (r *EvsimResult) RenderCSV() string {
	header, rows := r.tabular()
	return csvTable(header, rows)
}

// RenderJSON emits the benchmark in the BENCH_evsim.json shape CI
// publishes as an artifact.
func (r *EvsimResult) RenderJSON() (string, error) {
	out, err := json.MarshalIndent(struct {
		Experiment string     `json:"experiment"`
		GateRatio  float64    `json:"gate_ratio"`
		MaxRatio   float64    `json:"max_ratio"`
		Rows       []EvsimRow `json:"rows"`
	}{Experiment: "evsim", GateRatio: evsimMaxRatio, MaxRatio: r.MaxRatio, Rows: r.Rows}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
