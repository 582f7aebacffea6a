package powerapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/query"
)

// queryCluster builds a cluster running both the power monitor and the
// query engine, which /v1/query evaluates through.
func queryCluster(t *testing.T, nodes int, pmCfg powermon.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{System: cluster.Lassen, Nodes: nodes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mons := make([]*powermon.Module, nodes)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		m := powermon.New(pmCfg)
		mons[rank] = m
		return m
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return query.New(query.Config{
			Source: func(rank int32) query.Source { return mons[rank] },
		})
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func queryURL(expr string, end float64) string {
	return "/v1/query?expr=" + url.QueryEscape(expr) + fmt.Sprintf("&end=%g", end)
}

func TestQueryEndpoint(t *testing.T) {
	c := queryCluster(t, 4, powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
	})
	gw := newGateway(t, c, Config{})
	if _, err := c.Submit(job.Spec{App: "gemm", Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Minute)
	end := c.Now().Seconds()

	rec := get(gw, queryURL("avg by (job) (avg_over_time(node_power_watts[2m]))", end), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var res query.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || !strings.HasPrefix(res.Groups[0].Key, "job=") || res.Groups[0].Value <= 0 {
		t.Fatalf("groups: %+v", res.Groups)
	}
	if got := rec.Header().Get("X-Complete"); got != "true" {
		t.Fatalf("X-Complete: %q", got)
	}
	if got := rec.Header().Get("X-Source"); got != query.SourceRaw {
		t.Fatalf("X-Source: %q", got)
	}
}

// TestQueryCacheNormalization: whitespace, clause-order, matcher-order,
// and duration-unit variants of one expression must land on one cache
// entry — only the first request goes upstream.
func TestQueryCacheNormalization(t *testing.T) {
	c := queryCluster(t, 2, powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
	})
	gw := newGateway(t, c, Config{})
	c.RunFor(3 * time.Minute)
	end := c.Now().Seconds()

	variants := []string{
		"sum by (rank, component) (avg_over_time(power_watts[2m]))",
		"sum by (component, rank) (avg_over_time(power_watts[120s]))",
		"  sum   by( component ,rank )(avg_over_time( power_watts [ 120 ] ))",
	}
	var first string
	for i, expr := range variants {
		rec := get(gw, queryURL(expr, end), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if i == 0 {
			first = rec.Body.String()
		} else if rec.Body.String() != first {
			t.Fatalf("variant %d body diverged:\n%s\nvs\n%s", i, rec.Body.String(), first)
		}
	}
	m := gw.Metrics()
	if m.UpstreamCalls != 1 {
		t.Fatalf("want 1 upstream call for %d equivalent queries, got %d", len(variants), m.UpstreamCalls)
	}
	if m.CacheHits != uint64(len(variants)-1) {
		t.Fatalf("want %d cache hits, got %d", len(variants)-1, m.CacheHits)
	}
}

func TestQueryBadExpr(t *testing.T) {
	c := queryCluster(t, 2, powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
	})
	gw := newGateway(t, c, Config{})
	c.RunFor(time.Minute)

	for _, path := range []string{
		"/v1/query", // missing expr
		queryURL("sum(avg_over_time(bogus[60s]))", 0),
		queryURL("avg_over_time(node_power_watts[60s])", 0), // bare window
		queryURL("sum(avg_over_time(node_power_watts[60s]", 0),
		"/v1/query?expr=" + url.QueryEscape("sum(avg_over_time(node_power_watts[60s]))") + "&end=zebra",
		// ParseFloat accepts these; the handler must not. NaN in
		// particular would dodge every comparison-based guard and fail
		// only at JSON encoding, hanging the request.
		"/v1/query?expr=" + url.QueryEscape("sum(avg_over_time(node_power_watts[60s]))") + "&end=NaN",
		"/v1/query?expr=" + url.QueryEscape("sum(avg_over_time(node_power_watts[60s]))") + "&start=NaN",
		"/v1/query?expr=" + url.QueryEscape("sum(avg_over_time(node_power_watts[60s]))") + "&end=Inf",
		"/v1/query?expr=" + url.QueryEscape("sum(avg_over_time(node_power_watts[60s]))") + "&start=-Infinity",
		// The node window read parses its bounds with the same rule.
		"/v1/nodes/0/power?start=NaN",
		"/v1/nodes/0/power?end=NaN",
		"/v1/nodes/1/power?start=Inf",
		"/v1/nodes/1/power?start=0&end=-Infinity",
		"/v1/nodes/0/power?end=zebra",
	} {
		rec := get(gw, path, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, rec.Code, rec.Body.String())
		}
	}
	if calls := gw.Metrics().UpstreamCalls; calls != 0 {
		t.Fatalf("malformed queries reached upstream %d times", calls)
	}

	// An empty window is rejected by the engine, not the parser: the
	// gateway must translate the EINVAL into a 400.
	rec := get(gw, "/v1/query?expr="+url.QueryEscape("sum(avg_over_time(node_power_watts[60s]))")+"&start=500&end=100", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty window: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

func TestMetricsLatencyQuantiles(t *testing.T) {
	c := queryCluster(t, 2, powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
	})
	gw := newGateway(t, c, Config{})
	c.RunFor(time.Minute)

	get(gw, "/v1/jobs", "")
	m := gw.Metrics()
	if m.LatencyP99Ms <= 0 {
		t.Fatalf("latency quantiles not observed: %+v", m)
	}
	if m.LatencyP50Ms > m.LatencyP95Ms || m.LatencyP95Ms > m.LatencyP99Ms {
		t.Fatalf("quantiles out of order: %+v", m)
	}
}
