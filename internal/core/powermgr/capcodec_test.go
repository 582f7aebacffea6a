package powermgr

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"fluxpower/internal/flux/msg"
)

// sameFloat compares floats bit for bit, so -0 differs from 0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkEncoder asserts that a cap-path body encodes to json.Marshal's
// bytes: the canonical bytes when the fast encoder applies, otherwise
// the struct itself, which msg hands to encoding/json.
func checkEncoder(t *testing.T, v any, body any) []byte {
	t.Helper()
	want, wantErr := json.Marshal(v)
	raw, fast := body.(json.RawMessage)
	if !fast {
		if reflect.TypeOf(body) != reflect.TypeOf(v) {
			t.Fatalf("%#v: fallback body %#v is not the value itself", v, body)
		}
		return nil
	}
	if wantErr != nil {
		t.Fatalf("%#v: fast encoder wrote %s where json.Marshal fails: %v", v, raw, wantErr)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("%#v: fast encoder wrote %s, json.Marshal %s", v, raw, want)
	}
	return raw
}

// checkScan asserts that a fast parser either declines b or returns
// exactly what json.Unmarshal returns for it.
func checkScan[T comparable](t *testing.T, b []byte, got T, ok bool, same func(a, b T) bool) {
	t.Helper()
	if !ok {
		return
	}
	var want T
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("fast parser accepted %q, which json.Unmarshal rejects: %v", b, err)
	}
	if !same(got, want) {
		t.Fatalf("fast parser read %q as %+v, json.Unmarshal as %+v", b, got, want)
	}
}

func sameLimit(a, b nodeLimitRequest) bool {
	return a.JobID == b.JobID && sameFloat(a.LimitW, b.LimitW) && a.Policy == b.Policy
}

func sameObserve(a, b observeResponse) bool {
	return a.Rank == b.Rank && sameFloat(a.NodeW, b.NodeW) && sameFloat(a.LimitW, b.LimitW)
}

// FuzzCapPathCodec is the differential oracle for the cap-path codec:
// every body the fast encoders write equals json.Marshal's bytes and
// reads back through the fast parser bit for bit, and for arbitrary
// bytes each fast parser either declines or agrees with json.Unmarshal
// — it never accepts what json.Unmarshal rejects.
func FuzzCapPathCodec(f *testing.F) {
	f.Add(uint64(7), 1200.0, 1234.5678901234567, int32(3), "proportional", []byte(`{"jobid":7,"limit_w":1200,"policy":"proportional"}`))
	f.Add(uint64(0), math.Copysign(0, -1), 5e-324, int32(-1), "fpp", []byte(`{"rank":-0,"node_w":-0.0,"limit_w":1E+2}`))
	f.Add(uint64(1<<53+1), 1e-7, 1e21, int32(math.MaxInt32), "none", []byte(`{"jobid": 1,"limit_w":2,"policy":"none"}`))
	f.Add(uint64(math.MaxUint64), 999999999999999900000.0, 2.2250738585072014e-308, int32(math.MinInt32), "prøportional", []byte(`{"jobid":18446744073709551615,"limit_w":1e400,"policy":"static"}`))
	f.Add(uint64(42), 1e-6, 9.999999999999999e-7, int32(0), "<b>&amp;", []byte(`{"limit_w":1234.5}`))
	f.Add(uint64(5), math.Inf(1), math.NaN(), int32(12), "", []byte(`{"jobid":1,"limit_w":2,"policy":"fp\u0070"}`))
	f.Add(uint64(9), 1e300, -1e-300, int32(791), "static", []byte(`{"rank":2147483648,"node_w":1,"limit_w":1}`))
	f.Fuzz(func(t *testing.T, jobID uint64, limitW, nodeW float64, rank int32, policy string, raw []byte) {
		req := nodeLimitRequest{JobID: jobID, LimitW: limitW, Policy: Policy(policy)}
		if b := checkEncoder(t, req, req.payload()); b != nil {
			got, ok := scanNodeLimit(b)
			known := false
			for _, p := range []Policy{PolicyProportional, PolicyFPP, PolicyStatic, PolicyNone, ""} {
				known = known || req.Policy == p
			}
			if ok != known || (ok && !sameLimit(got, req)) {
				t.Fatalf("%s read back as %+v (ok=%v), want %+v", b, got, ok, req)
			}
		}
		checkEncoder(t, setLimitAck{LimitW: limitW, Rank: rank}, setLimitAck{LimitW: limitW, Rank: rank}.payload())
		obs := observeResponse{Rank: rank, NodeW: nodeW, LimitW: limitW}
		if b := checkEncoder(t, obs, obs.payload()); b != nil {
			if got, ok := scanObserve(b); !ok || !sameObserve(got, obs) {
				t.Fatalf("%s read back as %+v (ok=%v), want %+v", b, got, ok, obs)
			}
		}
		r, ok := scanNodeLimit(raw)
		checkScan(t, raw, r, ok, sameLimit)
		o, ok := scanObserve(raw)
		checkScan(t, raw, o, ok, sameObserve)
	})
}

// TestCapCodecFallsBack runs bodies the fast parsers decline through
// the full parse: encoding/json decodes them, and rejects what it
// rejects.
func TestCapCodecFallsBack(t *testing.T) {
	for _, tc := range []struct {
		body string
		want nodeLimitRequest
		err  bool
	}{
		{`{"jobid":7,"limit_w":1200,"policy":"proportional"}`, nodeLimitRequest{7, 1200, PolicyProportional}, false},
		{`{"policy":"fpp","limit_w":900.5,"jobid":3}`, nodeLimitRequest{3, 900.5, PolicyFPP}, false},
		{`{ "jobid": 1, "limit_w": 2, "policy": "none" }`, nodeLimitRequest{1, 2, PolicyNone}, false},
		{`{"jobid":1,"limit_w":2,"policy":"fp\u0070"}`, nodeLimitRequest{1, 2, PolicyFPP}, false},
		{`{"limit_w":1234.5}`, nodeLimitRequest{LimitW: 1234.5}, false},
		{`{"jobid":1,"limit_w":2,"policy":"custom"}`, nodeLimitRequest{1, 2, "custom"}, false},
		{`{"jobid":1,"limit_w":1e400,"policy":"fpp"}`, nodeLimitRequest{}, true},
		{`{"jobid":-1,"limit_w":2,"policy":"fpp"}`, nodeLimitRequest{}, true},
	} {
		if _, ok := scanNodeLimit([]byte(tc.body)); ok != (tc.body == `{"jobid":7,"limit_w":1200,"policy":"proportional"}`) {
			t.Fatalf("%s: fast parser ok=%v", tc.body, ok)
		}
		got, err := parseNodeLimit(&msg.Message{Payload: json.RawMessage(tc.body)})
		if (err != nil) != tc.err || (!tc.err && !sameLimit(got, tc.want)) {
			t.Fatalf("%s: parsed %+v, %v; want %+v (error %v)", tc.body, got, err, tc.want, tc.err)
		}
	}
	for _, p := range []Policy{"prøportional", "a<b", `fp"p`, "\x00"} {
		if _, fast := (nodeLimitRequest{Policy: p}).payload().(json.RawMessage); fast {
			t.Fatalf("policy %q took the fast encoder", p)
		}
	}
	if _, err := parseObserve(&msg.Message{Payload: json.RawMessage(`{"rank":1,"node_w":"x","limit_w":2}`)}); err == nil {
		t.Fatal("observe reply with a string node_w parsed")
	}
	if o, err := parseObserve(&msg.Message{Payload: json.RawMessage(`{"limit_w":2,"node_w":3,"rank":1}`)}); err != nil || o != (observeResponse{1, 3, 2}) {
		t.Fatalf("reordered observe reply parsed as %+v, %v", o, err)
	}
}

// TestCapCodecParsersDoNotAllocate pins the point of the fast parsers:
// a canonical body decodes without touching the heap.
func TestCapCodecParsersDoNotAllocate(t *testing.T) {
	limit := &msg.Message{Payload: nodeLimitRequest{JobID: 12, LimitW: 1122.2222222222222, Policy: PolicyProportional}.payload().(json.RawMessage)}
	obs := &msg.Message{Payload: observeResponse{Rank: 791, NodeW: 1234.5678901234567, LimitW: 1e-7}.payload().(json.RawMessage)}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := parseNodeLimit(limit); err != nil {
			t.Fatal(err)
		}
		if _, err := parseObserve(obs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parsing two canonical bodies allocates %.0f times, want 0", allocs)
	}
}
