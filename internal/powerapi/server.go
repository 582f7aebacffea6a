// Package powerapi is the HTTP/JSON gateway onto the power-telemetry
// plane: the production front door the paper's Python client script
// grows into. It attaches to the root broker (like a client holding the
// system instance's local socket) and exposes job power data, node
// sample windows, cluster health, and live SSE sample streams.
//
// Three mechanisms keep root-broker load sublinear in HTTP client count,
// which is what makes the gateway safe to put in front of a whole
// center's dashboards:
//
//   - response caching: rendered responses are cached with a TTL and
//     evicted LRU; job-scoped entries are invalidated the moment the
//     job's finish event arrives, so completion is never stale.
//   - request coalescing: concurrent cache misses on one key elect a
//     leader to perform the single upstream TBON reduce; everyone else
//     waits for that result (hand-rolled singleflight).
//   - rate limiting: per-client token buckets turn overload into 429 +
//     Retry-After instead of a pile-up on the broker.
//
// Requests carry context deadlines end-to-end: the HTTP request context,
// bounded by Config.RequestTimeout, flows through powermon.Client's
// context methods into broker RPC timeouts.
package powerapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/fanout"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/query"
	"fluxpower/internal/stats"
)

// Config parameterizes a Gateway. The zero value of every field except
// Broker is usable; defaults are filled in by New.
type Config struct {
	// Broker is the attach point — normally the root, like the system
	// instance's local socket. Required unless Hub is set (the hub's
	// broker is used, and setting both to different brokers is an error).
	Broker *broker.Broker

	// Hub is the shared broadcast plane. Replicated gateway tiers pass
	// the same hub to every replica: they share its single root
	// attachment, its per-job fan-out rings, and its one set of cache
	// invalidation subscriptions. Nil means this gateway creates and
	// owns a private hub (closed with the gateway).
	Hub *fanout.Hub

	// RequestTimeout bounds each request's upstream work. Default 5s.
	RequestTimeout time.Duration
	// CacheTTL is the response-cache lifetime for running-job and
	// cluster-level answers. Default 2s (one sampling interval).
	CacheTTL time.Duration
	// CacheTTLDone is the lifetime for finished jobs, whose telemetry
	// window is immutable. Default 5m.
	CacheTTLDone time.Duration

	// RateLimit is the per-client sustained request rate in requests per
	// second; 0 disables limiting. RateBurst is the bucket depth
	// (default max(1, 2*RateLimit)).
	RateLimit float64
	RateBurst int

	// TrustProxy honors X-Forwarded-For for rate-limit client identity.
	// Leave false (the default) unless a trusted proxy terminates every
	// connection — otherwise clients can rotate the header to mint
	// themselves fresh buckets.
	TrustProxy bool

	// Tenants enables bearer-token authentication and per-tenant quotas
	// (aggregate request rate and concurrent SSE streams). Empty means
	// anonymous mode: no auth required, per-client limits only.
	Tenants []Tenant

	// Now overrides the clock (tests). Default time.Now. Cache TTLs and
	// rate-limit refill are measured on this clock.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 2 * time.Second
	}
	if c.CacheTTLDone <= 0 {
		c.CacheTTLDone = 5 * time.Minute
	}
	if c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RateLimit)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Metrics is a snapshot of the gateway's counters, served at
// /v1/metrics. UpstreamCalls over Requests is the gateway's RPC
// amplification at the HTTP layer; the serve experiment measures the
// broker-side equivalent.
type Metrics struct {
	Requests      uint64 `json:"requests"`
	RateLimited   uint64 `json:"rate_limited"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Coalesced     uint64 `json:"coalesced"`
	UpstreamCalls uint64 `json:"upstream_calls"`
	Errors4xx     uint64 `json:"errors_4xx"`
	Errors5xx     uint64 `json:"errors_5xx"`

	AuthFailures        uint64 `json:"auth_failures"`
	QuotaStreamRejected uint64 `json:"quota_stream_rejected"`

	StreamsStarted  uint64 `json:"streams_started"`
	StreamsEnded    uint64 `json:"streams_ended"`
	SamplesStreamed uint64 `json:"samples_streamed"`
	SamplesDropped  uint64 `json:"samples_dropped"`

	CacheEntries int `json:"cache_entries"`

	// Request-latency quantiles in milliseconds, from a log-bucketed
	// histogram over every served request (upper-bound estimates; 0
	// until the first request completes).
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

// StoreMetrics summarizes every rank's durable tsdb store for
// /v1/metrics: capacity planning (bytes on disk, segment and block
// counts) and durability health (worst fsync lag, recovery and
// torn-record totals) in one glance.
type StoreMetrics struct {
	Ranks          int     `json:"ranks"`
	Segments       int     `json:"segments"`
	SealedBlocks   int     `json:"sealed_blocks"`
	BytesOnDisk    int64   `json:"bytes_on_disk"`
	MaxFsyncLagSec float64 `json:"max_fsync_lag_sec"`
	Recoveries     int     `json:"recoveries"`
	TornRecords    int     `json:"torn_records"`
}

// metricsResponse is the /v1/metrics body: the gateway's own counters,
// the shared broadcast plane's counters, and, when any rank runs a
// durable store, the fleet's store summary.
type metricsResponse struct {
	Metrics
	Fanout *fanout.Metrics `json:"fanout,omitempty"`
	Store  *StoreMetrics   `json:"store,omitempty"`
}

// Gateway is the HTTP handler. Create with New, serve with any
// http.Server (or call ServeHTTP directly in tests and simulations),
// and stop with Close, which drains in-flight requests and streams.
type Gateway struct {
	cfg Config
	pm  *powermon.Client
	qc  *query.Client
	mux *http.ServeMux

	// hub is the broadcast plane: the shared root attachment, the
	// per-job SSE fan-out rings, and the lifecycle subscriptions that
	// drive cache invalidation. ownHub marks a hub this gateway created
	// for itself (and must close); a replicated tier shares one hub.
	hub    *fanout.Hub
	ownHub bool
	// unregister removes this replica from the hub's invalidation
	// broadcast.
	unregister func()

	// brokerMu serializes all broker-bound work. It points at the hub's
	// upstream mutex: every replica sharing a hub shares ONE attachment
	// to the broker — the moral equivalent of the single local-socket
	// connection a real Flux client multiplexes — and in simulation the
	// scheduler behind the broker is single-threaded, so concurrent HTTP
	// handlers must take turns upstream. Coalescing and caching make the
	// serialized section rare and short.
	brokerMu *sync.Mutex

	cache    *responseCache
	flight   *flightGroup
	limiters *limiterPool

	// tenants is the configured tenant set (authenticated mode when
	// non-empty); tenantLimiters holds the per-tenant aggregate buckets,
	// separate from the per-client pool so neither evicts the other.
	tenants        []*tenantState
	tenantLimiters *limiterPool

	requests, rateLimited    atomic.Uint64
	coalesced, upstreamCalls atomic.Uint64
	errors4xx, errors5xx     atomic.Uint64
	authFailures             atomic.Uint64
	quotaStreams             atomic.Uint64
	streamsStarted           atomic.Uint64
	streamsEnded             atomic.Uint64
	samplesStreamed          atomic.Uint64
	samplesDropped           atomic.Uint64

	done      chan struct{} // closed by Close; SSE loops watch it
	closing   atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup // in-flight requests, incl. streams

	// Store-summary snapshot for /v1/metrics, refreshed upstream at most
	// once per CacheTTL and served stale (best-effort) on fetch failure,
	// so a metrics scrape never amplifies into a status fan-out storm.
	storeMu  sync.Mutex
	storeVal *StoreMetrics
	storeAt  time.Time

	// Request-latency sketch behind /v1/metrics quantiles. Log-bucketed
	// (10 µs .. 60 s) so merges and quantile reads stay cheap.
	latMu   sync.Mutex
	latency *stats.Histogram
}

// New builds a gateway on the broadcast hub (creating a private one
// from cfg.Broker when cfg.Hub is nil) and registers for the job
// lifecycle events that drive cache invalidation.
func New(cfg Config) (*Gateway, error) {
	ownHub := false
	if cfg.Hub == nil {
		if cfg.Broker == nil {
			return nil, errors.New("powerapi: Config.Broker is required")
		}
		hub, err := fanout.New(fanout.Config{Broker: cfg.Broker, Now: cfg.Now})
		if err != nil {
			return nil, err
		}
		cfg.Hub = hub
		ownHub = true
	}
	if cfg.Broker == nil {
		cfg.Broker = cfg.Hub.Broker()
	} else if cfg.Broker != cfg.Hub.Broker() {
		return nil, errors.New("powerapi: Config.Broker differs from Config.Hub's broker")
	}
	cfg = cfg.withDefaults()
	gw := &Gateway{
		cfg:      cfg,
		pm:       powermon.NewClient(cfg.Broker),
		qc:       query.NewClient(cfg.Broker),
		hub:      cfg.Hub,
		ownHub:   ownHub,
		brokerMu: cfg.Hub.UpstreamMu(),
		cache:    newResponseCache(cacheSize, cfg.Now),
		flight:   newFlightGroup(),
		limiters: newLimiterPool(cfg.RateLimit, cfg.RateBurst, cfg.Now),
		latency:  stats.NewHistogram(0.01, 60_000, 64),
		done:     make(chan struct{}),
	}
	for _, t := range cfg.Tenants {
		ts := &tenantState{Tenant: t}
		gw.tenants = append(gw.tenants, ts)
		if gw.tenantLimiters == nil {
			gw.tenantLimiters = newLimiterPool(0, 1, cfg.Now)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", gw.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}/power", gw.handleJobPower)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", gw.handleJobStream)
	mux.HandleFunc("GET /v1/nodes/{rank}/power", gw.handleNodePower)
	mux.HandleFunc("GET /v1/query", gw.handleQuery)
	mux.HandleFunc("GET /v1/cluster/status", gw.handleClusterStatus)
	mux.HandleFunc("GET /v1/metrics", gw.handleMetrics)
	gw.mux = mux

	// A finished job's cached entries are stale the instant the finish
	// event lands: the telemetry window froze, and the list's state
	// column changed. Start/submit events only perturb the list. The hub
	// holds the bus subscriptions once and broadcasts to every replica,
	// so a replicated tier still costs the broker one set.
	gw.unregister = gw.hub.Register(fanout.Replica{
		InvalidateJob:  gw.cache.invalidateJob,
		InvalidateList: func() { gw.cache.invalidateJob(listCacheID) },
	})
	return gw, nil
}

// Hub exposes the gateway's broadcast plane, so drivers can attach
// additional replicas or read fan-out metrics.
func (gw *Gateway) Hub() *fanout.Hub { return gw.hub }

// listCacheID is the pseudo-job id under which the /v1/jobs listing is
// cached, so lifecycle events can invalidate it like any job entry.
const listCacheID = ^uint64(0)

// Close stops accepting requests (new ones get 503), signals SSE
// streams to end, and blocks until every in-flight request has drained.
// Idempotent; every call blocks until the drain completes.
func (gw *Gateway) Close() {
	gw.closeOnce.Do(func() {
		gw.closing.Store(true)
		close(gw.done)
		gw.unregister()
	})
	gw.wg.Wait()
	if gw.ownHub {
		gw.hub.Close()
	}
}

// Sync runs fn while holding the gateway's broker attachment. Drivers
// that advance simulated time concurrently with HTTP traffic (the
// flux-power-api demo binary, chaos soaks) use this so scheduler
// dispatch and gateway RPCs never interleave.
func (gw *Gateway) Sync(fn func()) {
	gw.brokerMu.Lock()
	defer gw.brokerMu.Unlock()
	fn()
}

// Metrics returns a snapshot of the gateway's counters.
func (gw *Gateway) Metrics() Metrics {
	hits, misses, entries := gw.cache.stats()
	gw.latMu.Lock()
	p50 := gw.latency.Quantile(0.50)
	p95 := gw.latency.Quantile(0.95)
	p99 := gw.latency.Quantile(0.99)
	gw.latMu.Unlock()
	return Metrics{
		LatencyP50Ms:        p50,
		LatencyP95Ms:        p95,
		LatencyP99Ms:        p99,
		AuthFailures:        gw.authFailures.Load(),
		QuotaStreamRejected: gw.quotaStreams.Load(),

		Requests:        gw.requests.Load(),
		RateLimited:     gw.rateLimited.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		Coalesced:       gw.coalesced.Load(),
		UpstreamCalls:   gw.upstreamCalls.Load(),
		Errors4xx:       gw.errors4xx.Load(),
		Errors5xx:       gw.errors5xx.Load(),
		StreamsStarted:  gw.streamsStarted.Load(),
		StreamsEnded:    gw.streamsEnded.Load(),
		SamplesStreamed: gw.samplesStreamed.Load(),
		SamplesDropped:  gw.samplesDropped.Load(),
		CacheEntries:    entries,
	}
}

// ServeHTTP implements http.Handler: admission control (shutdown,
// rate limit), then route dispatch.
func (gw *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	began := gw.cfg.Now()
	defer func() {
		ms := float64(gw.cfg.Now().Sub(began)) / float64(time.Millisecond)
		gw.latMu.Lock()
		gw.latency.Observe(ms)
		gw.latMu.Unlock()
	}()
	if gw.closing.Load() {
		http.Error(w, `{"error":"shutting down"}`, http.StatusServiceUnavailable)
		return
	}
	gw.wg.Add(1)
	defer gw.wg.Done()
	// Re-check after registering with the drain group: a Close between
	// the first check and wg.Add must not let the request race the wait.
	if gw.closing.Load() {
		http.Error(w, `{"error":"shutting down"}`, http.StatusServiceUnavailable)
		return
	}
	tenant, ok := gw.authenticate(r)
	if !ok {
		gw.unauthorized(w)
		return
	}
	if tenant != nil {
		// The tenant's aggregate bucket sits above the per-client ones:
		// a tenant cannot exceed its contracted rate by fanning out
		// across many client addresses.
		if ok, retryAfter := gw.tenantLimiters.allowWith("tenant:"+tenant.Name,
			tenant.RateLimit, float64(tenant.RateBurst)); !ok {
			gw.tooManyRequests(w, retryAfter)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant))
	}
	if ok, retryAfter := gw.limiters.allow(clientKey(r, gw.cfg.TrustProxy)); !ok {
		gw.tooManyRequests(w, retryAfter)
		return
	}
	gw.mux.ServeHTTP(w, r)
}

// tenantCtxKey carries the authenticated tenant through the request
// context to the stream handler's quota check.
type tenantCtxKey struct{}

// requestTenant recovers the authenticated tenant (nil in anonymous
// mode).
func requestTenant(r *http.Request) *tenantState {
	t, _ := r.Context().Value(tenantCtxKey{}).(*tenantState)
	return t
}

// tooManyRequests rejects a rate-limited request with Retry-After.
func (gw *Gateway) tooManyRequests(w http.ResponseWriter, retryAfter time.Duration) {
	gw.rateLimited.Add(1)
	secs := int(retryAfter / time.Second)
	if retryAfter%time.Second != 0 || secs == 0 {
		secs++ // round up; Retry-After is integral seconds ≥ 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, `{"error":"rate limit exceeded"}`, http.StatusTooManyRequests)
}

// --- response plumbing ---

// writeCached replays a rendered response.
func (gw *Gateway) writeCached(w http.ResponseWriter, v cached) {
	w.Header().Set("Content-Type", v.contentType)
	w.Header().Set("X-Complete", strconv.FormatBool(v.complete))
	if v.source != "" {
		w.Header().Set("X-Source", v.source)
	}
	w.WriteHeader(v.status)
	_, _ = w.Write(v.body)
}

// fail maps an upstream error onto an HTTP status:
//
//	ENOENT            → 404 (no such job)
//	EINVAL            → 400 (the instance rejected the parameters)
//	deadline exceeded → 504 (the client's budget ran out)
//	anything else     → 502 (root unreachable, service missing, timeout)
func (gw *Gateway) fail(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	var me *msg.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; nothing we write will be read. 499 is
		// the conventional (nonstandard) marker, kept out of the 5xx
		// counter since the gateway did nothing wrong.
		status = 499
	case errors.As(err, &me):
		switch me.Errnum {
		case msg.ENOENT:
			status = http.StatusNotFound
		case msg.EINVAL:
			status = http.StatusBadRequest
		}
	}
	switch {
	case status >= 500:
		gw.errors5xx.Add(1)
	case status >= 400:
		gw.errors4xx.Add(1)
	}
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// badRequest reports a client-side parameter error without consulting
// upstream.
func (gw *Gateway) badRequest(w http.ResponseWriter, format string, args ...any) {
	gw.errors4xx.Add(1)
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	_, _ = w.Write(append(body, '\n'))
}

// fetched pairs a rendered response with the TTL it should be cached
// under (≤ 0 means do not cache).
type fetched struct {
	val cached
	ttl time.Duration
}

// cachedFetch is the shared read path: cache lookup, then coalesced
// upstream fetch, then fill. fetch runs with the gateway's broker
// attachment held and a context bounded by RequestTimeout.
func (gw *Gateway) cachedFetch(ctx context.Context, key string, jobID uint64,
	fetch func(ctx context.Context) (fetched, error)) (cached, error) {
	if v, ok := gw.cache.get(key); ok {
		return v, nil
	}
	v, err, shared := gw.flight.do(key, func() (cached, error) {
		// The leader re-checks the cache: a previous leader may have
		// filled it between our miss and winning the flight.
		if v, ok := gw.cache.get(key); ok {
			return v, nil
		}
		gw.upstreamCalls.Add(1)
		fctx, cancel := context.WithTimeout(ctx, gw.cfg.RequestTimeout)
		defer cancel()
		gw.brokerMu.Lock()
		f, err := fetch(fctx)
		gw.brokerMu.Unlock()
		if err != nil {
			return cached{}, err
		}
		gw.cache.put(key, jobID, f.val, f.ttl)
		return f.val, nil
	})
	if shared {
		gw.coalesced.Add(1)
	}
	return v, err
}

// jsonBody renders v as a cached JSON response.
func jsonBody(v any, complete bool) (cached, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return cached{}, err
	}
	return cached{
		body:        buf.Bytes(),
		contentType: "application/json",
		status:      http.StatusOK,
		complete:    complete,
	}, nil
}

// --- handlers ---

// jobsResponse is the /v1/jobs body.
type jobsResponse struct {
	Jobs []job.Record `json:"jobs"`
}

func (gw *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	v, err := gw.cachedFetch(r.Context(), "jobs", listCacheID, func(ctx context.Context) (fetched, error) {
		resp, err := gw.cfg.Broker.CallContext(ctx, msg.NodeAny, "job-manager.list", nil)
		if err != nil {
			return fetched{}, err
		}
		var body jobsResponse
		if err := resp.Unmarshal(&body); err != nil {
			return fetched{}, err
		}
		if body.Jobs == nil {
			body.Jobs = []job.Record{}
		}
		val, err := jsonBody(body, true)
		return fetched{val: val, ttl: gw.cfg.CacheTTL}, err
	})
	if err != nil {
		gw.fail(w, err)
		return
	}
	gw.writeCached(w, v)
}

func (gw *Gateway) handleJobPower(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		gw.badRequest(w, "job id %q is not a number", r.PathValue("id"))
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "aggregate"
	}
	if mode != "raw" && mode != "aggregate" {
		gw.badRequest(w, "mode %q: want raw or aggregate", mode)
		return
	}
	key := "power:" + strconv.FormatUint(id, 10) + ":" + mode
	v, err := gw.cachedFetch(r.Context(), key, id, func(ctx context.Context) (fetched, error) {
		switch mode {
		case "raw":
			jp, err := gw.pm.QueryContext(ctx, id)
			if err != nil {
				return fetched{}, err
			}
			var buf bytes.Buffer
			if err := powermon.WriteCSV(&buf, jp); err != nil {
				return fetched{}, err
			}
			val := cached{
				body:        buf.Bytes(),
				contentType: "text/csv",
				status:      http.StatusOK,
				complete:    jp.Complete(),
			}
			for _, n := range jp.Nodes {
				if n.Source == "tsdb" {
					val.source = "tsdb"
					break
				}
			}
			return fetched{val: val, ttl: gw.jobTTL(jp.EndSec, val.complete)}, nil
		default:
			ja, err := gw.pm.QueryAggregateContext(ctx, id)
			if err != nil {
				return fetched{}, err
			}
			complete := ja.Complete && !ja.Partial
			val, err := jsonBody(ja, complete)
			return fetched{val: val, ttl: gw.jobTTL(ja.EndSec, complete)}, err
		}
	})
	if err != nil {
		gw.fail(w, err)
		return
	}
	gw.writeCached(w, v)
}

// jobTTL picks the cache lifetime for a job answer: long for a finished
// complete window (immutable), one sampling interval for a running job,
// and a quarter interval for a partial answer so a recovered subtree
// shows through quickly.
func (gw *Gateway) jobTTL(endSec float64, complete bool) time.Duration {
	if !complete {
		return gw.cfg.CacheTTL / 4
	}
	if endSec > 0 {
		return gw.cfg.CacheTTLDone
	}
	return gw.cfg.CacheTTL
}

func (gw *Gateway) handleNodePower(w http.ResponseWriter, r *http.Request) {
	rank64, err := strconv.ParseInt(r.PathValue("rank"), 10, 32)
	if err != nil {
		gw.badRequest(w, "rank %q is not a number", r.PathValue("rank"))
		return
	}
	rank := int32(rank64)
	if rank < 0 || rank >= gw.cfg.Broker.Size() {
		gw.errors4xx.Add(1)
		http.Error(w, fmt.Sprintf(`{"error":"rank %d outside instance of size %d"}`, rank, gw.cfg.Broker.Size()),
			http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	start, end := 0.0, 0.0
	if s := q.Get("start"); s != "" {
		if start, err = strconv.ParseFloat(s, 64); err != nil {
			gw.badRequest(w, "start %q is not a number", s)
			return
		}
	}
	if s := q.Get("end"); s != "" {
		if end, err = strconv.ParseFloat(s, 64); err != nil {
			gw.badRequest(w, "end %q is not a number", s)
			return
		}
	}
	key := fmt.Sprintf("node:%d:%g:%g", rank, start, end)
	ttl := gw.cfg.CacheTTL
	if end == 0 {
		// "until now" answers change every sampling tick; don't cache.
		ttl = 0
	}
	v, err := gw.cachedFetch(r.Context(), key, 0, func(ctx context.Context) (fetched, error) {
		ns, err := gw.pm.CollectNodeContext(ctx, rank, start, end)
		if err != nil {
			return fetched{}, err
		}
		val, err := jsonBody(ns, ns.Complete)
		val.source = ns.Source
		return fetched{val: val, ttl: ttl}, err
	})
	if err != nil {
		gw.fail(w, err)
		return
	}
	gw.writeCached(w, v)
}

func (gw *Gateway) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	v, err := gw.cachedFetch(r.Context(), "status", 0, func(ctx context.Context) (fetched, error) {
		st, err := gw.pm.StatusContext(ctx)
		if err != nil {
			return fetched{}, err
		}
		val, err := jsonBody(st, len(st.Unreachable) == 0)
		return fetched{val: val, ttl: gw.cfg.CacheTTL}, err
	})
	if err != nil {
		gw.fail(w, err)
		return
	}
	gw.writeCached(w, v)
}

func (gw *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := metricsResponse{Metrics: gw.Metrics()}
	fm := gw.hub.Metrics()
	out.Fanout = &fm
	out.Store = gw.storeMetrics(r.Context())
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// storeMetrics returns the fleet store summary, refreshing it upstream
// when the snapshot is older than CacheTTL. Failures keep the previous
// snapshot (or nil): metrics must degrade, not fail.
func (gw *Gateway) storeMetrics(ctx context.Context) *StoreMetrics {
	gw.storeMu.Lock()
	defer gw.storeMu.Unlock()
	now := gw.cfg.Now()
	if !gw.storeAt.IsZero() && now.Sub(gw.storeAt) < gw.cfg.CacheTTL {
		return gw.storeVal
	}
	fctx, cancel := context.WithTimeout(ctx, gw.cfg.RequestTimeout)
	gw.brokerMu.Lock()
	st, err := gw.pm.StatusContext(fctx)
	gw.brokerMu.Unlock()
	cancel()
	if err != nil {
		return gw.storeVal // stale or nil, but never an error
	}
	gw.storeAt = now
	if len(st.Stores) == 0 {
		gw.storeVal = nil
		return nil
	}
	sm := &StoreMetrics{}
	for _, ss := range st.Stores {
		sm.Ranks++
		sm.Segments += ss.Health.Segments
		sm.SealedBlocks += ss.Health.SealedBlocks
		sm.BytesOnDisk += ss.Health.BytesOnDisk
		if ss.Health.LastFsyncLagSec > sm.MaxFsyncLagSec {
			sm.MaxFsyncLagSec = ss.Health.LastFsyncLagSec
		}
		sm.Recoveries += ss.Health.Recoveries
		sm.TornRecords += ss.Health.TornRecords
	}
	gw.storeVal = sm
	return sm
}
