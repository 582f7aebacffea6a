package powerapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"fluxpower/internal/core/powermon"
)

// serveLoad has clients concurrent clients, each from its own address,
// issue perClient requests cycling through job listing, both power
// renderings of job id, and cluster health, and fails the test on any
// response other than 200.
func serveLoad(t *testing.T, gw *Gateway, id uint64, clients, perClient int) {
	t.Helper()
	paths := []string{
		"/v1/jobs",
		"/v1/jobs/" + strconv.FormatUint(id, 10) + "/power",
		"/v1/jobs/" + strconv.FormatUint(id, 10) + "/power?mode=raw",
		"/v1/cluster/status",
	}
	codes := make([][]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addr := fmt.Sprintf("10.0.%d.%d:5000", i/256, i%256)
			for j := 0; j < perClient; j++ {
				req := httptest.NewRequest(http.MethodGet, paths[(i+j)%len(paths)], nil)
				req.RemoteAddr = addr
				rec := httptest.NewRecorder()
				gw.ServeHTTP(rec, req)
				codes[i] = append(codes[i], rec.Code)
			}
		}(i)
	}
	wg.Wait()
	for i, cs := range codes {
		for _, code := range cs {
			if code != http.StatusOK {
				t.Fatalf("client %d got %d, want 200", i, code)
			}
		}
	}
}

// TestServeLoadSmoke is the CI gate for the gateway's whole point: many
// concurrent clients must not translate into many root-broker RPCs. 64
// clients hammer a drained 4-node instance with identical queries; the
// run must produce zero 5xx responses and strictly sublinear RPC
// amplification (broker RPCs issued ÷ HTTP requests served < 1.0).
// Run it under -race: the concurrency discipline (brokerMu, coalescer,
// cache) is exactly what it exercises.
func TestServeLoadSmoke(t *testing.T) {
	c := testCluster(t, 4, powermon.Config{})
	gw := newGateway(t, c, Config{})
	id := runJob(t, c, "gemm", 4)

	root := c.Inst.Root()
	rpcsBefore := root.Stats().RPCsIssued
	const clients, perClient = 64, 8
	serveLoad(t, gw, id, clients, perClient)

	total := clients * perClient
	rpcs := root.Stats().RPCsIssued - rpcsBefore
	amp := float64(rpcs) / float64(total)
	t.Logf("%d requests, %d root RPCs, amplification %.3f", total, rpcs, amp)
	if amp >= 1.0 {
		t.Fatalf("amplification %.3f ≥ 1.0: coalescing/caching not engaging", amp)
	}

	m := gw.Metrics()
	if m.Errors5xx != 0 {
		t.Fatalf("5xx under load: %+v", m)
	}
	if m.CacheHits+m.Coalesced == 0 {
		t.Fatal("no request ever hit the cache or coalesced")
	}

	// Graceful drain must leave no RPC outstanding at the broker.
	gw.Close()
	if n := root.PendingRPCs(); n != 0 {
		t.Fatalf("%d RPCs still pending after drain", n)
	}
}

// TestServeAmplificationFallsWithClients serves 16 and then 64
// concurrent clients, 8 requests each, on a drained 8-node instance,
// with a fresh gateway per row so every row pays the same cold-cache
// misses. Every row must serve without a 5xx at under one root RPC per
// request; at 64 clients the amplification must be at most 0.1 and the
// root RPCs at most 4x those at 16 clients, so the RPC count stays flat
// as load grows. The gateway's cache-hit and coalesced counters depend
// on goroutine timing, so nothing here reads them.
func TestServeAmplificationFallsWithClients(t *testing.T) {
	c := testCluster(t, 8, powermon.Config{})
	id := runJob(t, c, "gemm", 8)
	root := c.Inst.Root()
	const perClient = 8
	var rpcs [2]uint64
	var amp float64
	for i, clients := range []int{16, 64} {
		gw := newGateway(t, c, Config{})
		before := root.Stats().RPCsIssued
		serveLoad(t, gw, id, clients, perClient)
		rpcs[i] = root.Stats().RPCsIssued - before
		amp = float64(rpcs[i]) / float64(clients*perClient)
		m := gw.Metrics()
		t.Logf("%2d clients  %d requests  %d root RPCs  amplification %.3f  %d upstream  %d 5xx",
			clients, clients*perClient, rpcs[i], amp, m.UpstreamCalls, m.Errors5xx)
		if m.Errors5xx != 0 || amp >= 1.0 {
			t.Fatalf("%d clients: %d 5xx, amplification %.3f (want 0 and < 1)", clients, m.Errors5xx, amp)
		}
	}
	if amp > 0.1 {
		t.Fatalf("64 clients: amplification %.3f > 0.1", amp)
	}
	if rpcs[1] > 4*rpcs[0] {
		t.Fatalf("root RPCs grew with client count: %d -> %d", rpcs[0], rpcs[1])
	}
}

func TestClientKey(t *testing.T) {
	for _, tc := range []struct {
		remote, xff string
		trustProxy  bool
		want        string
	}{
		// Default (untrusted): the header is attacker-controlled and must
		// never become the bucket key, or one client rotates addresses to
		// bypass the limiter entirely.
		{"192.0.2.1:1234", "", false, "192.0.2.1"},
		{"192.0.2.1:1234", "203.0.113.5", false, "192.0.2.1"},
		{"192.0.2.1:1234", "203.0.113.5, 10.0.0.1", false, "192.0.2.1"},
		{"unix-socket", "", false, "unix-socket"},
		// Behind a declared trusted proxy the first forwarded hop is the
		// client.
		{"192.0.2.1:1234", "", true, "192.0.2.1"},
		{"192.0.2.1:1234", "203.0.113.5", true, "203.0.113.5"},
		{"192.0.2.1:1234", "203.0.113.5, 10.0.0.1", true, "203.0.113.5"},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
		req.RemoteAddr = tc.remote
		if tc.xff != "" {
			req.Header.Set("X-Forwarded-For", tc.xff)
		}
		if got := clientKey(req, tc.trustProxy); got != tc.want {
			t.Errorf("clientKey(remote=%q xff=%q trust=%v) = %q, want %q",
				tc.remote, tc.xff, tc.trustProxy, got, tc.want)
		}
	}
}

// TestRateLimitSpoofResistance drives the full gateway: without
// TrustProxy, rotating X-Forwarded-For must not mint fresh buckets.
func TestRateLimitSpoofResistance(t *testing.T) {
	c := testCluster(t, 4, powermon.Config{})
	gw := newGateway(t, c, Config{RateLimit: 1, RateBurst: 2})
	limited := 0
	for i := 0; i < 10; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
		req.RemoteAddr = "192.0.2.1:1234"
		req.Header.Set("X-Forwarded-For", fmt.Sprintf("203.0.113.%d", i))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code == http.StatusTooManyRequests {
			limited++
		}
	}
	if limited < 8 {
		t.Fatalf("spoofed XFF minted fresh buckets: only %d of 10 limited", limited)
	}
	if gw.limiters.size() != 1 {
		t.Fatalf("expected 1 bucket (remote host), got %d", gw.limiters.size())
	}
}
