package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart is taken as early as the program can: set-up time runs
// from process start to the first measured operation.
var processStart = time.Now()

// workload is one benchmark scenario. The harness calls setup once per
// set-up repetition, then on the last instance begin, round until the
// time box is full, end, and verify; close releases everything setup
// created, the store directory included.
type workload interface {
	// setup builds the system under test and warms it, with a fixed
	// amount of work, to the steady state the workload is measured in.
	setup(e *env) error
	// round runs one whole round of fixed work. It returns how many
	// operations it attempted and how many of them failed, and appends
	// the wall time of each timed unit, in milliseconds, to e.lat.
	round(e *env) (ops, failed int64)
	// begin and end bracket a measured phase: end reports the per-layer
	// counts and ratios that phase produced, per operation where named so.
	begin(e *env)
	end(e *env, ops int64, m metricSet)
	// verify checks the outputs of everything the rounds did (untimed).
	verify(e *env) error
	close()
}

var workloads = map[string]func() workload{
	"ingest-steady":  func() workload { return &ingestSteady{} },
	"query-mixed":    func() workload { return &queryMixed{} },
	"stream-fanout":  func() workload { return &streamFanout{} },
	"control-lassen": func() workload { return &controlLassen{} },
}

// env is what a run hands its workload.
type env struct {
	o   options
	rng *rand.Rand
	// tr is nil in an untraced run. In a traced run it is installed at
	// set-up (the link and source seams are fixed when a cluster is
	// built) and switched on for the traced half of the measured phase.
	tr *tracer
	// dir is this set-up's private scratch directory.
	dir string
	// lat collects timed-unit wall times in milliseconds.
	lat []float64
}

// clients is how many goroutines may issue load: min(2, GOMAXPROCS), and
// one in a traced run so the span stack has a single owner.
func (e *env) clients() int {
	if e.tr != nil || runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	return 2
}

// phase is what one measured phase produced.
type phase struct {
	ops, failed int64
	rounds      int
	wall        time.Duration
	cpu         time.Duration
	allocBytes  uint64
	mallocs     uint64
	gcCycles    uint32
	gcPause     time.Duration
	lat         []float64
	startNs     int64 // tracer clock, traced phases only
	endNs       int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure runs whole rounds until box has elapsed. Memory and CPU are
// read once at each end, so nothing the harness does sits inside the
// measured region except the clock reads around each round.
func measure(w workload, e *env, box time.Duration, m metricSet) phase {
	e.lat = nil
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.begin(e)
	var p phase
	if e.tr != nil {
		p.startNs = e.tr.now()
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	for {
		ops, failed := w.round(e)
		p.ops += ops
		p.failed += failed
		p.rounds++
		if p.wall = time.Since(t0); p.wall >= box {
			break
		}
	}
	p.cpu = cpuTime() - cpu0
	if e.tr != nil {
		p.endNs = e.tr.now()
	}
	runtime.ReadMemStats(&m1)
	w.end(e, p.ops, m)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	// The phase keeps the record; the next phase starts a fresh one.
	p.lat, e.lat = e.lat, nil
	sort.Float64s(p.lat)
	return p
}

// quantile reads the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// runResult is a finished run: the printed result plus human-readable
// notes for standard error.
type runResult struct {
	Result
	notes []string
}

// setupRepeats is how often an untraced run sets the workload up. Set-up
// time is the median of the repetitions; the last instance is the one
// measured. One set-up of a few seconds is a single sample of a noisy
// quantity, and the driver compares set-up medians between commits.
const setupRepeats = 3

func run(o options) (*runResult, error) {
	e := &env{o: o}
	if o.Trace {
		e.tr = newTracer()
	}
	repeats := setupRepeats
	if o.Quick || o.Trace {
		repeats = 1
	}
	// Durable stores live in a directory of this run's own, gone when the
	// run ends; only span files stay in o.Dir.
	runDir := filepath.Join(o.Dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	var w workload
	var setups []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		// Every set-up sees the same seed, so the repetitions build the
		// same system and the measured instance is the one the seed names.
		e.rng = rand.New(rand.NewSource(o.Seed))
		e.dir = filepath.Join(runDir, fmt.Sprint(i))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		w = workloads[o.Workload]()
		if err := w.setup(e); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < repeats-1 {
			w.close()
			runtime.GC()
		}
	}
	defer w.close()

	e2e, layer := metricSet{}, metricSet{}
	box := time.Duration(o.Seconds * float64(time.Second))
	var p phase
	var tracedOps, tracedFailed int64
	if !o.Trace {
		p = measure(w, e, box, layer)
	} else {
		// One built system, two halves: the untraced half gives the rate
		// the traced half is compared with, so tracing overhead is read on
		// the same queue, stores and heap.
		p = measure(w, e, box/2, layer)
		e.tr.on.Store(true)
		traced := measure(w, e, box/2, metricSet{})
		e.tr.on.Store(false)
		layer.set("run.trace_overhead_frac", 1-rate(traced)/rate(p))
		traceMetrics(e.tr, traced, layer)
		p.startNs, p.endNs = traced.startNs, traced.endNs
		tracedOps, tracedFailed = traced.ops, traced.failed
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	ops := float64(p.ops)
	e2e.set("setup_s", median(setups))
	e2e.set("ops_per_s", rate(p))
	e2e.set("op_ms_p50", quantile(p.lat, 0.5))
	e2e.set("cpu_us_per_op", float64(p.cpu.Microseconds())/ops)
	e2e.set("alloc_kb_per_op", float64(p.allocBytes)/1024/ops)
	e2e.set("allocs_per_op", float64(p.mallocs)/ops)
	e2e.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20))

	layer.set("run.op_ms_p99", quantile(p.lat, 0.99))
	layer.set("run.gc_cycles", float64(p.gcCycles))
	layer.set("run.gc_pause_ms_total", float64(p.gcPause)/float64(time.Millisecond))
	layer.set("run.measured_wall_s", p.wall.Seconds())
	layer.set("run.rounds", float64(p.rounds))
	layer.set("run.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	res := &runResult{}
	res.Attempted, res.Failed = p.ops+tracedOps, p.failed+tracedFailed
	res.Correct = res.Failed == 0
	if err := w.verify(e); err != nil {
		res.Correct = false
		res.notes = append(res.notes, "VERIFY FAILED: "+err.Error())
	}
	if o.Trace {
		if err := layerPass(e, layer); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		layer.set("run.peak_rss_mb", peakRSSMB())
		path, err := e.tr.write(o.Dir, o.Workload, o.Seed, p.startNs, p.endNs)
		if err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		res.notes = append(res.notes, "spans: "+path)
	}

	defs, set := endToEnd, e2e
	if o.Trace {
		defs, set = perLayer, layer
	}
	var stray []string
	res.Metrics, stray = set.render(defs)
	if len(stray) > 0 {
		return nil, fmt.Errorf("undeclared metrics set: %v", stray)
	}
	res.notes = append(res.notes, fmt.Sprintf(
		"%s seed=%d: %d ops in %d rounds over %.2fs, %d timed units, set-ups %.3v s",
		o.Workload, o.Seed, p.ops, p.rounds, p.wall.Seconds(), len(p.lat), setups))
	for _, d := range endToEnd {
		res.notes = append(res.notes, fmt.Sprintf("  %-18s %14.4f %s", d.Name, e2e[d.Name], d.Unit))
	}
	return res, nil
}

func rate(p phase) float64 { return float64(p.ops) / p.wall.Seconds() }

// traceMetrics derives the traced-run-only metrics from the spans of the
// traced half.
func traceMetrics(t *tracer, p phase, m metricSet) {
	ops := float64(p.ops)
	link := t.agg("link.send")
	m.set("transport.msgs_per_op", float64(link.Count)/ops)
	m.set("transport.kb_per_op", float64(link.Bytes)/1024/ops)
	if link.Count > 0 {
		m.set("transport.send_self_us", float64(link.SelfNs)/1e3/float64(link.Count))
	}
	var rootBytes int
	t.mu.Lock()
	for _, s := range t.spans {
		if s.Name == "link.send" && (s.From == 0 || s.To == 0) {
			rootBytes += s.Bytes
		}
	}
	t.mu.Unlock()
	if link.Kept > 0 {
		// Root-link bytes are read off the kept spans and scaled to the
		// whole phase when the retention cap dropped some.
		m.set("transport.root_kb_per_op", float64(rootBytes)/1024/ops*float64(link.Count)/float64(link.Kept))
	}
	var reads nameAgg
	for _, name := range []string{"source.raw", "source.store_raw", "source.tier"} {
		a := t.agg(name)
		reads.Count += a.Count
		reads.Ns += a.Ns
	}
	if reads.Count > 0 {
		m.set("query.source_read_us", float64(reads.Ns)/1e3/float64(reads.Count))
	}
	if round, run := t.agg("round"), t.agg("cluster.RunFor"); round.Ns > 0 {
		m.set("fanout.publish_half_frac", float64(run.Ns)/float64(round.Ns))
	}
}
