package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/powerapi"
	"fluxpower/internal/query"
	"fluxpower/internal/tsdb"
)

// queryMixed is the read path: a cluster with 50 minutes of seeded job
// history in rings, archive tiers and tsdb blocks, the query module on
// every rank, one gateway on the root, and closed-loop clients calling
// Gateway.ServeHTTP with a fixed mix of cached and fresh requests. The
// cluster does not advance during the measured phase. One operation is
// one HTTP request answered 200, and that is the timed unit too.
type queryMixed struct {
	c        *cluster.Cluster
	mons     []*powermon.Module
	gw       *powerapi.Gateway
	storeDir string
	clock    fakeClock

	nowSec   float64  // simulated time the history ends at
	finished []uint64 // jobs with a closed window, in a seeded order
	jobStep  time.Duration
	uniq     atomic.Int64
	clients  []*queryClient

	br  *brokerBracket
	gw0 powerapi.Metrics
}

const (
	queryNodes      = 32
	queryHistorySec = 3000 // the ring holds the last 1024 s, so two thirds of the history have left it
	queryStep       = 20 * time.Second
	queryQueueDepth = 4
	queryBlock      = 100 // requests per client per round: five passes of the mix
	queryCheckEvery = 50  // fresh /v1/query answers between reference checks
)

// Request classes. queryMix is one pass of the mix, 20 requests: 30 %
// cached dashboards, 20 % / 20 % / 10 % fresh windows answered from the
// ring, the archive tier and tsdb blocks, 10 % / 5 % per-job aggregate
// and raw CSV, 5 % cluster status. Each pass is shuffled by the seed, so
// every block of requests holds exactly these shares.
const (
	clsHit = iota
	clsRing
	clsTier
	clsTSDB
	clsJobAgg
	clsJobRaw
	clsStatus
	numClasses
)

var queryMix = [20]int{
	clsHit, clsHit, clsHit, clsHit, clsHit, clsHit,
	clsRing, clsRing, clsRing, clsRing,
	clsTier, clsTier, clsTier, clsTier,
	clsTSDB, clsTSDB,
	clsJobAgg, clsJobAgg,
	clsJobRaw,
	clsStatus,
}

var classMetric = [numClasses]string{
	"", "powerapi.q_ring_ms", "powerapi.q_tier_ms", "powerapi.q_tsdb_ms",
	"powerapi.job_agg_ms", "powerapi.job_raw_ms", "powerapi.status_ms",
}

// classSource is the X-Source a class's answers must carry: the proof
// that a fresh window was answered by the storage level it is meant to
// exercise.
var classSource = [numClasses]string{clsRing: "raw", clsTier: "tier:60", clsTSDB: "tsdb", clsJobRaw: "tsdb"}

// dashboards are the repeated queries of the hit class; freshExprs the
// expressions fresh windows cycle through.
var (
	dashboards = []string{
		"sum(avg_over_time(node_power_watts[2h]))",
		"avg by (job) (avg_over_time(node_power_watts[2h]))",
		"max by (rank) (max_over_time(gpu_power_watts[2h]))",
		"topk(5, avg_over_time(power_watts[2h]))",
	}
	freshExprs = []string{
		"sum(avg_over_time(node_power_watts[2h]))",
		"avg by (job) (avg_over_time(node_power_watts[2h]))",
		"max(max_over_time(gpu_power_watts[2h]))",
	}
)

// fakeClock is the gateway's injected Config.Now. The simulated cluster
// stands still during the measured phase, so cache lifetimes are driven
// from here: a status request moves it past CacheTTL and a per-job
// request far enough that the same job's answer has expired
// (CacheTTLDone) by the time the walk over the finished jobs returns to
// it. Both therefore miss every time, as a poller's requests would.
type fakeClock struct {
	base time.Time
	off  atomic.Int64
}

func (c *fakeClock) Now() time.Time          { return c.base.Add(time.Duration(c.off.Load())) }
func (c *fakeClock) advance(d time.Duration) { c.off.Add(int64(d)) }

const (
	gatewayCacheTTL     = 2 * time.Second // powerapi defaults
	gatewayCacheTTLDone = 5 * time.Minute
)

// queryClient is one closed-loop client: its own request sequence, its
// own walk over the finished jobs, its own latency records.
type queryClient struct {
	rng    *rand.Rand
	jobPos int
	fresh  int
	lat    []float64
	byCls  [numClasses][]float64
	checks []queryCheck
}

// queryCheck is a fresh /v1/query answer kept for the reference check.
type queryCheck struct {
	expr       string
	start, end float64
	body       []byte
}

func (w *queryMixed) setup(e *env) error {
	nodes, history := queryNodes, queryHistorySec
	if e.o.Quick {
		nodes, history = 8, 1600
	}
	c, err := newCluster(e, cluster.Config{Nodes: nodes})
	if err != nil {
		return err
	}
	w.c = c
	w.storeDir = filepath.Join(e.dir, "store")
	// The history is written once and then only read, so the store is
	// maintained once a simulated minute rather than every 10 s: the
	// blocks, tiers and tier logs a reader sees are the same, and the
	// set-up stays within a few seconds.
	w.mons, err = loadMonitors(c, powermon.Config{
		StoreDir:          w.storeDir,
		Store:             tsdb.Config{BlockSamples: blockSamples},
		StoreSyncInterval: time.Minute,
	})
	if err != nil {
		return err
	}
	if err := c.Inst.LoadModuleAll(func(int32) broker.Module {
		return query.New(query.Config{Source: func(rank int32) query.Source { return e.tr.source(w.mons[rank]) }})
	}); err != nil {
		return err
	}
	src, err := newJobSource(rand.New(rand.NewSource(e.rng.Int63())),
		queueShape{MinNodes: 2, MaxNodes: 8, MinSec: 100, MaxSec: 300}, e.o.Queue)
	if err != nil {
		return err
	}
	jobs := countJobs(c.Inst.Root())
	defer jobs.stop()
	var submitted int64
	for t := 0.0; t < float64(history); t += queryStep.Seconds() {
		for submitted-jobs.starts.Load() < queryQueueDepth {
			if _, err := c.Submit(src.next()); err != nil {
				return err
			}
			submitted++
		}
		c.RunFor(queryStep)
	}
	w.nowSec = c.Now().Seconds()

	recs, err := c.JM.List()
	if err != nil {
		return err
	}
	// Per-job requests ask about jobs whose window has left the raw ring —
	// the common case in production, where the ring holds minutes and
	// jobs are looked up for days — so job-raw has to read tsdb blocks.
	ringStart := w.nowSec - 2*bufferSamples
	for _, r := range recs {
		if r.State == job.StateInactive && r.EndSec-r.StartSec >= 30 && r.StartSec < ringStart-10 {
			w.finished = append(w.finished, r.ID)
		}
	}
	if len(w.finished) < 4 {
		return fmt.Errorf("history holds only %d finished jobs older than the ring", len(w.finished))
	}
	e.rng.Shuffle(len(w.finished), func(i, j int) { w.finished[i], w.finished[j] = w.finished[j], w.finished[i] })
	w.jobStep = gatewayCacheTTLDone/time.Duration(len(w.finished)) + 100*time.Millisecond

	w.clock.base = time.Unix(1_700_000_000, 0)
	w.gw, err = powerapi.New(powerapi.Config{
		Broker:       c.Inst.Root(),
		Now:          w.clock.Now,
		CacheTTL:     gatewayCacheTTL,
		CacheTTLDone: gatewayCacheTTLDone,
	})
	if err != nil {
		return err
	}
	for i := 0; i < e.clients(); i++ {
		w.clients = append(w.clients, &queryClient{
			rng:    rand.New(rand.NewSource(e.rng.Int63())),
			jobPos: i * len(w.finished) / e.clients(),
		})
	}
	// Warm the gateway: fill the dashboard entries and touch every class.
	w.round(e)
	for _, cl := range w.clients {
		cl.checks = nil
	}
	e.lat = e.lat[:0]
	return nil
}

func (w *queryMixed) begin(e *env) {
	w.br = bracketBrokers(w.c)
	w.gw0 = w.gw.Metrics()
	for _, cl := range w.clients {
		for i := range cl.byCls {
			cl.byCls[i] = cl.byCls[i][:0]
		}
	}
}

func (w *queryMixed) round(e *env) (int64, int64) {
	failed := make([]int64, len(w.clients))
	var wg sync.WaitGroup
	for i, cl := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.lat = cl.lat[:0]
			for pass := 0; pass < queryBlock/len(queryMix); pass++ {
				mix := queryMix
				cl.rng.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
				for _, cls := range mix {
					if !w.request(e, cl, cls) {
						failed[i]++
					}
				}
			}
		}()
	}
	wg.Wait()
	var bad int64
	for i, cl := range w.clients {
		e.lat = append(e.lat, cl.lat...)
		bad += failed[i]
	}
	return int64(queryBlock * len(w.clients)), bad
}

// micros rounds a time to the microsecond the request URLs carry, so the
// reference check evaluates the window the gateway was asked for.
func micros(sec float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(sec, 'f', 6, 64), 64)
	return v
}

// queryURL renders a /v1/query request.
func queryURL(expr string, start, end float64) string {
	return "/v1/query?" + url.Values{
		"expr":  {expr},
		"start": {strconv.FormatFloat(start, 'f', 6, 64)},
		"end":   {strconv.FormatFloat(end, 'f', 6, 64)},
	}.Encode()
}

// request issues one request of class cls and reports whether the answer
// was the one the class demands.
func (w *queryMixed) request(e *env, cl *queryClient, cls int) bool {
	sp := e.tr.beginReq("request")
	defer e.tr.end(sp)
	// uniq makes every fresh window's bounds, and so its cache key, new.
	uniq := float64(w.uniq.Add(1)) * 1e-6
	var target, expr string
	var start, end float64
	switch cls {
	case clsHit:
		i := cl.rng.Intn(len(dashboards))
		target = queryURL(dashboards[i], w.nowSec-600, w.nowSec)
	case clsRing:
		expr = freshExprs[cl.rng.Intn(len(freshExprs))]
		start, end = micros(w.nowSec-300-500*cl.rng.Float64()+uniq), w.nowSec
		target = queryURL(expr, start, end)
	case clsTier:
		expr = freshExprs[cl.rng.Intn(len(freshExprs))]
		start, end = micros(60+240*cl.rng.Float64()+uniq), w.nowSec
		target = queryURL(expr, start, end)
	case clsTSDB:
		rank := cl.rng.Intn(w.c.NodeCount())
		start = 60 + (w.nowSec-bufferSamples*2-500)*cl.rng.Float64() + uniq
		target = fmt.Sprintf("/v1/nodes/%d/power?start=%.6f&end=%.6f", rank, start, start+300)
	case clsJobAgg, clsJobRaw:
		w.clock.advance(w.jobStep)
		id := w.finished[cl.jobPos%len(w.finished)]
		cl.jobPos++
		target = fmt.Sprintf("/v1/jobs/%d/power", id)
		if cls == clsJobRaw {
			target += "?mode=raw"
		}
	case clsStatus:
		w.clock.advance(gatewayCacheTTL + 100*time.Millisecond)
		target = "/v1/cluster/status"
	}
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	hsp := e.tr.begin("Gateway.ServeHTTP")
	t := time.Now()
	w.gw.ServeHTTP(rec, req)
	ms := float64(time.Since(t)) / float64(time.Millisecond)
	e.tr.end(hsp)
	cl.lat = append(cl.lat, ms)
	cl.byCls[cls] = append(cl.byCls[cls], ms)

	if rec.Code != http.StatusOK || rec.Header().Get("X-Complete") != "true" {
		return false
	}
	if want := classSource[cls]; want != "" && rec.Header().Get("X-Source") != want {
		return false
	}
	if expr != "" {
		if cl.fresh++; cl.fresh%queryCheckEvery == 0 {
			cl.checks = append(cl.checks, queryCheck{expr, start, end, rec.Body.Bytes()})
		}
	}
	return true
}

func (w *queryMixed) end(e *env, ops int64, m metricSet) {
	w.br.end(w.c, ops, m)
	g := w.gw.Metrics()
	reqs := float64(g.Requests - w.gw0.Requests)
	// Over requests, not over the cache's own lookups: a miss looks twice.
	m.set("powerapi.cache_hit_ratio", float64(g.CacheHits-w.gw0.CacheHits)/reqs)
	m.set("powerapi.coalesce_ratio", float64(g.Coalesced-w.gw0.Coalesced)/reqs)
	m.set("powerapi.upstream_per_req", float64(g.UpstreamCalls-w.gw0.UpstreamCalls)/reqs)
	m.set("powerapi.errors_5xx", float64(g.Errors5xx-w.gw0.Errors5xx))
	for cls, name := range classMetric {
		if name == "" {
			continue
		}
		var all []float64
		for _, cl := range w.clients {
			all = append(all, cl.byCls[cls]...)
		}
		sort.Float64s(all)
		m.set(name, quantile(all, 0.5))
	}
}

// verify re-evaluates the kept fresh answers the slow way — every rank's
// plan-selected records fetched flat and folded by the single-node
// reference evaluator — and demands the gateway's bytes.
func (w *queryMixed) verify(e *env) error {
	qc := query.NewClient(w.c.Inst.Root())
	size := w.c.NodeCount()
	checked := 0
	for _, cl := range w.clients {
		for _, ck := range cl.checks {
			ex, err := query.Parse(ck.expr)
			if err != nil {
				return err
			}
			spec, err := qc.Plan(ck.expr, ck.start, ck.end)
			if err != nil {
				return fmt.Errorf("plan %q: %w", ck.expr, err)
			}
			ref := query.EvalRecords(ex, spec, qc.FetchAll(spec, int32(size)), size)
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(ref); err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), ck.body) {
				return fmt.Errorf("%q over [%.3f, %.3f]: gateway answer differs from the reference evaluation", ck.expr, ck.start, ck.end)
			}
			checked++
		}
	}
	if checked == 0 && !e.o.Quick {
		return fmt.Errorf("no fresh answer was checked against the reference")
	}
	return nil
}

func (w *queryMixed) close() {
	if w.gw != nil {
		w.gw.Close()
	}
	if w.c != nil {
		_ = w.c.Inst.UnloadModuleAll(powermon.ModuleName)
		w.c.Close()
	}
	if w.storeDir != "" {
		_ = os.RemoveAll(w.storeDir)
	}
}
