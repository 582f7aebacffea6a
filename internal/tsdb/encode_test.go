package tsdb

import (
	"math"
	"math/rand"
	"testing"
)

func roundTripTimestamps(t *testing.T, ts []float64) {
	t.Helper()
	d := tsDecoder{r: bitReader{buf: encodeTimestamps(ts)}}
	for i := range ts {
		got, err := d.next()
		if err != nil {
			t.Fatalf("ts[%d]: %v", i, err)
		}
		if math.Float64bits(got) != math.Float64bits(ts[i]) {
			t.Fatalf("ts[%d] = %x, want %x", i, math.Float64bits(got), math.Float64bits(ts[i]))
		}
	}
}

func roundTripValues(t *testing.T, vals []float64) {
	t.Helper()
	d := xorDecoder{r: bitReader{buf: encodeValues(vals)}}
	for i := range vals {
		got, err := d.next()
		if err != nil {
			t.Fatalf("val[%d]: %v", i, err)
		}
		if math.Float64bits(got) != math.Float64bits(vals[i]) {
			t.Fatalf("val[%d] = %x, want %x", i, math.Float64bits(got), math.Float64bits(vals[i]))
		}
	}
}

func TestTimestampCodecRoundTrip(t *testing.T) {
	cases := map[string][]float64{
		"empty":    nil,
		"single":   {42.5},
		"constant": {10, 12, 14, 16, 18, 20},
		"irregular": {
			0.5, 2.125, 2.126, 100, 101.5, 1e6, 1e6 + 2,
		},
		"binade crossing": { // constant stride across a power-of-two boundary
			1022, 1024, 1026, 1028, 2046, 2048, 2050,
		},
		"special": {
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		},
	}
	for name, ts := range cases {
		t.Run(name, func(t *testing.T) { roundTripTimestamps(t, ts) })
	}
	// A long fixed-cadence trace should compress to roughly a bit per
	// sample after the header.
	long := make([]float64, 10000)
	for i := range long {
		long[i] = 1000 + float64(i)*2
	}
	enc := encodeTimestamps(long)
	if len(enc) > 1500 {
		t.Fatalf("fixed-cadence encoding is %d bytes for %d samples; want ≲1.2 bits/sample", len(enc), len(long))
	}
	roundTripTimestamps(t, long)
}

func TestValueCodecRoundTrip(t *testing.T) {
	cases := map[string][]float64{
		"empty":    nil,
		"single":   {-1},
		"constant": {212.5, 212.5, 212.5, 212.5},
		"slow drift": {
			200, 200.25, 200.5, 200.25, 201, 200.75,
		},
		"special": {
			0, math.Copysign(0, -1), -1, math.Inf(1), math.NaN(), 1e-300, 1e300,
		},
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { roundTripValues(t, vals) })
	}
}

func TestCodecRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		ts := make([]float64, n)
		vals := make([]float64, n)
		cur := rng.Float64() * 1e6
		for i := 0; i < n; i++ {
			cur += rng.Float64() * 10
			ts[i] = cur
			switch rng.Intn(4) {
			case 0:
				vals[i] = math.Float64frombits(rng.Uint64()) // arbitrary bits, incl. NaN
			case 1:
				if i > 0 {
					vals[i] = vals[i-1]
				}
			default:
				vals[i] = 100 + rng.NormFloat64()*30
			}
		}
		roundTripTimestamps(t, ts)
		roundTripValues(t, vals)
	}
}

func TestDoDBuckets(t *testing.T) {
	// Exercise every bucket boundary, both signs, and the 64-bit escape.
	vals := []int64{
		0, 1, -1, 63, -63, 64, -64, 65, 255, -255, 256, -256, 257,
		2047, -2047, 2048, -2048, 2049,
		1 << 20, -(1 << 20), 1 << 31, -(1 << 31) + 1, 1<<31 + 1, -(1 << 31),
		math.MaxInt64, math.MinInt64,
	}
	var w bitWriter
	for _, v := range vals {
		putDoD(&w, v)
	}
	r := &bitReader{buf: w.bytes()}
	for i, want := range vals {
		got, err := getDoD(r)
		if err != nil {
			t.Fatalf("getDoD[%d]: %v", i, err)
		}
		if got != want {
			t.Fatalf("dod[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestDecodeShortStream(t *testing.T) {
	enc := encodeValues([]float64{1, 2, 3, 4})
	for cut := 0; cut < len(enc)-1; cut++ {
		// The final byte may hold only padding bits; any earlier cut must
		// fail before the fourth value.
		d := xorDecoder{r: bitReader{buf: enc[:cut]}}
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			_, err = d.next()
		}
		if err == nil {
			t.Fatalf("xorDecoder accepted %d/%d bytes", cut, len(enc))
		}
	}
	if _, err := (&tsDecoder{}).next(); err == nil {
		t.Fatal("tsDecoder accepted an empty stream")
	}
}
