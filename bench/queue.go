package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"time"

	"fluxpower/internal/apps"
	"fluxpower/internal/flux/job"
)

// queueShape bounds the jobs a workload draws: node counts and full-power
// durations are log-uniform between the bounds, applications cycle
// through the whole catalog, and FPPEvery > 0 marks every n-th job with
// the per-job "fpp" power policy.
type queueShape struct {
	MinNodes, MaxNodes int
	MinSec, MaxSec     float64
	FPPEvery           int
}

// genQueue draws n job specs from shape, deterministically per rng.
//
// The draw is stratified: node counts, durations and applications each
// take one value from every 1/n slice of their distribution and are then
// shuffled independently. Every seed therefore sees the same mix of job
// shapes in a different order and pairing, which keeps a workload's cost
// per operation comparable from seed to seed while the program under
// test still sees a different queue.
func genQueue(rng *rand.Rand, n int, shape queueShape) []job.Spec {
	names := apps.Names()
	nodes := make([]int, n)
	secs := make([]float64, n)
	app := make([]string, n)
	for i := 0; i < n; i++ {
		nodes[i] = int(math.Round(logUniform(shape.MinNodes, shape.MaxNodes, (float64(i)+rng.Float64())/float64(n))))
		secs[i] = logUniform(shape.MinSec, shape.MaxSec, (float64(i)+rng.Float64())/float64(n))
		app[i] = names[i%len(names)]
	}
	rng.Shuffle(n, func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	rng.Shuffle(n, func(i, j int) { secs[i], secs[j] = secs[j], secs[i] })
	rng.Shuffle(n, func(i, j int) { app[i], app[j] = app[j], app[i] })
	specs := make([]job.Spec, n)
	for i := range specs {
		specs[i] = specFor(app[i], nodes[i], secs[i], i)
		if shape.FPPEvery > 0 && i%shape.FPPEvery == 0 {
			specs[i].PowerPolicy = "fpp"
		}
	}
	return specs
}

func logUniform[T int | float64](lo, hi T, u float64) float64 {
	return float64(lo) * math.Pow(float64(hi)/float64(lo), u)
}

// specFor builds the spec of a job that runs app on nodes for sec seconds
// at full power: the catalog fixes each application's reference run time,
// so the duration is set through SizeFactor.
func specFor(app string, nodes int, sec float64, idx int) job.Spec {
	p, err := apps.Lookup(app)
	if err != nil {
		panic(err) // names come from apps.Names
	}
	base := p.RefTimeSec
	if p.Scaling == apps.Strong {
		base *= math.Pow(float64(p.RefNodes)/float64(nodes), p.StrongTimeExp)
	}
	return job.Spec{
		Name:       fmt.Sprintf("%s-%d", app, idx),
		App:        app,
		Nodes:      nodes,
		SizeFactor: sec / base,
	}
}

// readQueueCSV reads a scheduler-export trace in the standardized CSV
// schema of the multi-scheduler export toolkit (SNIPPETS.md): one row per
// job with at least job_name, nodes_alloc, start_time and end_time
// columns, times in RFC 3339 or epoch seconds. job_name selects the
// application model; a name outside the catalog falls back to a catalog
// application chosen by the row number, so any site's trace replays.
// Node counts are clamped to maxNodes.
func readQueueCSV(path string, maxNodes int) ([]job.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("queue trace %s: header: %w", path, err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, need := range []string{"job_name", "nodes_alloc", "start_time", "end_time"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("queue trace %s: no %q column", path, need)
		}
	}
	names := apps.Names()
	var specs []job.Spec
	for row := 0; ; row++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("queue trace %s: %w", path, err)
		}
		nodes, err := strconv.Atoi(rec[col["nodes_alloc"]])
		if err != nil || nodes <= 0 {
			return nil, fmt.Errorf("queue trace %s row %d: nodes_alloc %q", path, row+1, rec[col["nodes_alloc"]])
		}
		start, err := parseTraceTime(rec[col["start_time"]])
		if err != nil {
			return nil, fmt.Errorf("queue trace %s row %d: start_time: %w", path, row+1, err)
		}
		end, err := parseTraceTime(rec[col["end_time"]])
		if err != nil {
			return nil, fmt.Errorf("queue trace %s row %d: end_time: %w", path, row+1, err)
		}
		if end <= start {
			continue // cancelled before it ran
		}
		if nodes > maxNodes {
			nodes = maxNodes
		}
		app := rec[col["job_name"]]
		if _, err := apps.Lookup(app); err != nil {
			app = names[row%len(names)]
		}
		specs = append(specs, specFor(app, nodes, end-start, row))
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("queue trace %s: no runnable jobs", path)
	}
	return specs, nil
}

func parseTraceTime(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return 0, err
	}
	return float64(t.UnixNano()) / 1e9, nil
}

// jobSource hands a workload its jobs one at a time: the generated queue,
// or a trace's rows when -queue names one, shuffled by the seed and
// repeated as often as the run needs.
type jobSource struct {
	rng   *rand.Rand
	shape queueShape
	trace []job.Spec
	buf   []job.Spec
}

func newJobSource(rng *rand.Rand, shape queueShape, tracePath string) (*jobSource, error) {
	s := &jobSource{rng: rng, shape: shape}
	if tracePath != "" {
		trace, err := readQueueCSV(tracePath, shape.MaxNodes)
		if err != nil {
			return nil, err
		}
		s.trace = trace
	}
	return s, nil
}

// queueBatch is how many specs one stratified draw covers: four of each
// catalog application. Any run of that many consecutive jobs holds the
// whole spread of sizes and durations, so two seeds that consume the
// same number of jobs consume nearly the same work.
const queueBatch = 28

func (s *jobSource) next() job.Spec {
	if len(s.buf) == 0 {
		if s.trace != nil {
			s.buf = append(s.buf, s.trace...)
			s.rng.Shuffle(len(s.buf), func(i, j int) { s.buf[i], s.buf[j] = s.buf[j], s.buf[i] })
		} else {
			s.buf = genQueue(s.rng, queueBatch, s.shape)
		}
	}
	spec := s.buf[0]
	s.buf = s.buf[1:]
	return spec
}
