package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fluxpower/internal/variorum"
)

// fuzzSeeds builds the canonical seed images: valid blocks of each
// schema shape plus a few hand-broken variants.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, mk := range []func(int) variorum.NodePower{mkSample, mkTiogaSample} {
		var samples []variorum.NodePower
		for i := 0; i < 48; i++ {
			samples = append(samples, mk(i))
		}
		img, err := encodeBlock(samples)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, img)
		seeds = append(seeds, img[:len(img)/2]) // truncated
		flip := append([]byte(nil), img...)
		flip[9] ^= 0x40 // corrupt the count field
		seeds = append(seeds, flip)
	}
	minimal, err := encodeBlock([]variorum.NodePower{{Hostname: "h", Timestamp: 1, Arch: "a", NodeWatts: 1}})
	if err != nil {
		panic(err)
	}
	seeds = append(seeds, minimal, []byte{}, []byte("FPB1"), bytes.Repeat([]byte{0xFF}, 64))
	return seeds
}

// bitsEqual compares two samples field-by-field with IEEE-754 bit
// equality (NaN-safe, unlike == or JSON).
func bitsEqual(a, b variorum.NodePower) bool {
	fe := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	se := func(x, y []float64) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !fe(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return a.Hostname == b.Hostname && fe(a.Timestamp, b.Timestamp) &&
		a.Arch == b.Arch && fe(a.NodeWatts, b.NodeWatts) &&
		se(a.SocketCPUWatts, b.SocketCPUWatts) && se(a.SocketMemWatts, b.SocketMemWatts) &&
		se(a.SocketGPUWatts, b.SocketGPUWatts) && se(a.GPUWatts, b.GPUWatts) &&
		a.GPUsPerSensorEntry == b.GPUsPerSensorEntry
}

// FuzzBlockDecode drives arbitrary bytes through the block decoder: it
// must never panic or allocate unboundedly, and anything it accepts must
// re-encode/re-decode to the same samples (the decoder defines the
// format; round-trip stability is what recovery relies on).
func FuzzBlockDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, samples, err := decodeBlock(data)
		if err != nil {
			return
		}
		if h.count != len(samples) {
			t.Fatalf("header count %d but %d samples", h.count, len(samples))
		}
		img, err := encodeBlock(samples)
		if err != nil {
			t.Fatalf("re-encode of accepted block failed: %v", err)
		}
		_, again, err := decodeBlock(img)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(samples) {
			t.Fatalf("round trip changed count: %d -> %d", len(samples), len(again))
		}
		for i := range samples {
			if !bitsEqual(samples[i], again[i]) {
				t.Fatalf("round trip changed sample %d", i)
			}
		}
		// splitFrames must also stay total on arbitrary bytes.
		payloads, clean, torn := splitFrames(data)
		if clean > len(data) || (torn && clean == len(data)) {
			t.Fatalf("splitFrames: clean=%d torn=%v for %d bytes", clean, torn, len(data))
		}
		again2, clean2, torn2 := splitFrames(data[:clean])
		if torn2 || clean2 != clean || len(again2) != len(payloads) {
			t.Fatal("splitFrames clean prefix does not re-parse cleanly")
		}
	})
}

// tierLogSeeds builds the seed images for FuzzTierLogRecover: a real
// tier log, the same log torn, bit-flipped, and carrying a well-framed
// payload that is not a bucket, plus the degenerate inputs.
func tierLogSeeds() [][]byte {
	var log []byte
	var samples []variorum.NodePower
	for i := 0; i < 130; i++ { // four buckets: small images keep the fuzzer's minimizer quick
		samples = append(samples, mkSample(i))
	}
	for _, r := range refold(samples, 60) {
		payload, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		log = appendFrame(log, payload)
	}
	flip := append([]byte(nil), log...)
	flip[len(flip)/2] ^= 0x10
	alien := appendFrame(append([]byte(nil), log[:len(log)/2]...), []byte(`{"start_sec":"x"}`))
	return [][]byte{log, log[:len(log)-7], flip, append(alien, log...),
		appendFrame(nil, []byte("null")), appendFrame(nil, nil), {}, bytes.Repeat([]byte{0xFF}, 64)}
}

// FuzzTierLogRecover opens a store over an arbitrary tier log: recovery
// must never fail or panic, must adopt exactly the buckets of the log's
// clean decodable prefix and cut the file back to it, and a second Open
// must find nothing left to repair.
func FuzzTierLogRecover(f *testing.F) {
	for _, seed := range tierLogSeeds() {
		f.Add(seed)
	}
	cfg := Config{TierPeriodsSec: []float64{60}}
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, clean, torn := splitFrames(data)
		if clean > len(data) || (torn && clean == len(data)) {
			t.Fatalf("splitFrames: clean=%d torn=%v for %d bytes", clean, torn, len(data))
		}
		var want []variorum.Bucket
		prefix := 0
		for _, payload := range payloads {
			var r variorum.Bucket
			if json.Unmarshal(payload, &r) != nil {
				break
			}
			want = append(want, r)
			prefix += 8 + len(payload)
		}

		dir := t.TempDir()
		path := filepath.Join(dir, "tier-60.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			s, err := Open(dir, cfg)
			if err != nil {
				t.Fatalf("open %d: %v", pass, err)
			}
			got := s.TierRecords(60)
			h := s.Health()
			_ = s.SelectTier(60, 0, 1e6) // any window: must not panic on unsorted buckets
			s.Crash()
			if len(got) != len(want) || h.TierRecords != len(want) {
				t.Fatalf("open %d: %d buckets (health %d), clean prefix holds %d", pass, len(got), h.TierRecords, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("open %d: bucket %d = %+v, want %+v", pass, i, got[i], want[i])
				}
			}
			if wantTorn := pass == 1 && prefix != len(data); (h.TornRecords == 1) != wantTorn {
				t.Fatalf("open %d: TornRecords = %d with a %d-byte prefix of %d bytes", pass, h.TornRecords, prefix, len(data))
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, data[:prefix]) {
				t.Fatalf("open %d: log is %d bytes, want the %d-byte clean prefix", pass, len(onDisk), prefix)
			}
		}
	})
}

// TestFuzzCorpusCommitted keeps the seed corpora materialized under
// testdata so CI's fuzz smokes start from real images even before any
// local fuzzing has populated the cache.
func TestFuzzCorpusCommitted(t *testing.T) {
	for target, seeds := range map[string][][]byte{
		"FuzzBlockDecode":    fuzzSeeds(),
		"FuzzTierLogRecover": tierLogSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			path := filepath.Join(dir, string(rune('a'+i))+"-seed")
			want := []byte("go test fuzz v1\n[]byte(" + quoteBytes(seed) + ")\n")
			got, err := os.ReadFile(path)
			if err == nil && bytes.Equal(got, want) {
				continue
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("materialized %s", path)
		}
	}
}

func quoteBytes(b []byte) string {
	const hex = "0123456789abcdef"
	out := make([]byte, 0, len(b)*4+2)
	out = append(out, '"')
	for _, c := range b {
		out = append(out, '\\', 'x', hex[c>>4], hex[c&0xF])
	}
	return string(append(out, '"'))
}
