package powermon

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fluxpower/internal/hw"
	"fluxpower/internal/ringbuf"
	"fluxpower/internal/simtime"
	"fluxpower/internal/variorum"
)

// rawShapes are the sample shapes the raw-ring tests mix: Lassen, Tioga
// (no node sensor, no memory sensor, two GCDs per OAM), a node without
// GPUs, Lassen under another hostname, a sample with no identity and
// empty but non-nil groups (which must not come back nil, and whose
// shape is the zero value a dropped table entry holds), and a wider GPU
// node that widens the ring's stride mid-ring.
var rawShapes = []struct {
	host, arch                string
	cpu, mem, gpuSock, gpuDev int
	gpusPer                   int
	noNode, noMem, noGPU      bool
}{
	{host: "lassen1", arch: string(hw.ArchIBMPower9), cpu: 2, mem: 2, gpuSock: 2, gpuDev: 4, gpusPer: 1},
	{host: "tioga1", arch: string(hw.ArchAMDTrento), cpu: 1, gpuSock: 1, gpuDev: 4, gpusPer: 2, noNode: true, noMem: true},
	{host: "cpu1", arch: "x86", cpu: 2, mem: 2, noGPU: true},
	{host: "lassen2", arch: string(hw.ArchIBMPower9), cpu: 2, mem: 2, gpuSock: 2, gpuDev: 4, gpusPer: 1},
	{},
	{host: "wide1", arch: "x86", cpu: 2, mem: 2, gpuSock: 2, gpuDev: 8, gpusPer: 1},
}

// rawSample builds sample seq of shape k at ts. Values are distinct per
// sample and channel, with the odd NaN, infinity and negative zero so a
// comparison by bits, not by ==, is needed.
func rawSample(k int, seq int, ts float64) variorum.NodePower {
	s := rawShapes[k%len(rawShapes)]
	v := 0
	val := func() float64 {
		v++
		switch (seq + v) % 23 {
		case 0:
			return math.NaN()
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(1)
		}
		return float64(seq)*1.25 + float64(v)/8
	}
	vals := func(n int, isNil bool) []float64 {
		if isNil {
			return nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = val()
		}
		return out
	}
	p := variorum.NodePower{
		Hostname:           s.host,
		Timestamp:          ts,
		Arch:               s.arch,
		NodeWatts:          val(),
		SocketCPUWatts:     vals(s.cpu, false),
		SocketMemWatts:     vals(s.mem, s.noMem),
		SocketGPUWatts:     vals(s.gpuSock, s.noGPU),
		GPUWatts:           vals(s.gpuDev, s.noGPU),
		GPUsPerSensorEntry: s.gpusPer,
	}
	if s.noNode {
		p.NodeWatts = variorum.Unsupported
	}
	return p
}

// sameBits reports whether two float64 groups are identical: both nil
// or both not, the same length and the same bits in every entry.
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSample(a, b *variorum.NodePower) bool {
	return a.Hostname == b.Hostname && a.Arch == b.Arch && a.GPUsPerSensorEntry == b.GPUsPerSensorEntry &&
		math.Float64bits(a.Timestamp) == math.Float64bits(b.Timestamp) &&
		math.Float64bits(a.NodeWatts) == math.Float64bits(b.NodeWatts) &&
		sameBits(a.SocketCPUWatts, b.SocketCPUWatts) && sameBits(a.SocketMemWatts, b.SocketMemWatts) &&
		sameBits(a.SocketGPUWatts, b.SocketGPUWatts) && sameBits(a.GPUWatts, b.GPUWatts)
}

// cloneSample deep-copies a scanned record, whose slices alias the ring.
func cloneSample(p *variorum.NodePower) variorum.NodePower {
	c := *p
	clone := func(s []float64) []float64 {
		if s == nil {
			return nil
		}
		return append([]float64{}, s...)
	}
	c.SocketCPUWatts, c.SocketMemWatts = clone(p.SocketCPUWatts), clone(p.SocketMemWatts)
	c.SocketGPUWatts, c.GPUWatts = clone(p.SocketGPUWatts), clone(p.GPUWatts)
	return c
}

// refRaw is the reference raw ring: the record ring the columnar one
// replaced, with its loss watermark kept the way the archive kept it.
type refRaw struct {
	ring *ringbuf.Ring[variorum.NodePower]
	lost float64
}

func (r *refRaw) push(p variorum.NodePower) {
	if r.ring.Len() == r.ring.Cap() {
		if oldest, ok := r.ring.Oldest(); ok && oldest.Timestamp > r.lost {
			r.lost = oldest.Timestamp
		}
	}
	r.ring.Push(p)
}

func (r *refRaw) restore(samples []variorum.NodePower, lostBefore float64) {
	r.lost = math.Max(r.lost, lostBefore)
	if excess := len(samples) - r.ring.Cap(); excess > 0 {
		r.lost = math.Max(r.lost, samples[excess-1].Timestamp)
	}
	for _, p := range samples {
		r.ring.Push(p)
	}
}

// rawRingRun drives a module's raw ring and the reference through the
// same operations and fails on the first difference.
type rawRingRun struct {
	t   testing.TB
	m   *Module
	ref refRaw
	seq int
	now float64
}

func newRawRingRun(t testing.TB, capacity int) *rawRingRun {
	return &rawRingRun{
		t:   t,
		m:   New(Config{BufferSamples: capacity, Tiers: []TierSpec{}}),
		ref: refRaw{ring: ringbuf.New[variorum.NodePower](capacity), lost: math.Inf(-1)},
		now: 1000,
	}
}

// next returns sample shape k, step seconds after the previous one (0
// repeats a timestamp).
func (r *rawRingRun) next(k int, step float64) variorum.NodePower {
	r.now += step
	r.seq++
	return rawSample(k, r.seq, r.now)
}

func (r *rawRingRun) push(p variorum.NodePower) {
	r.m.arch.push(p)
	r.ref.push(p)
}

func (r *rawRingRun) restore(samples []variorum.NodePower, lostBefore float64) {
	r.m.arch.restore(samples, lostBefore, nil)
	r.ref.restore(samples, lostBefore)
}

// stats compares the ring's counters and loss watermark with the
// reference's.
func (r *rawRingRun) stats(what string) {
	r.t.Helper()
	raw, ref := r.m.arch.raw, r.ref.ring
	if raw.Len() != ref.Len() || raw.Cap() != ref.Cap() || raw.Evicted() != ref.Evicted() {
		r.t.Fatalf("%s: len/cap/evicted %d/%d/%d, reference %d/%d/%d", what,
			raw.Len(), raw.Cap(), raw.Evicted(), ref.Len(), ref.Cap(), ref.Evicted())
	}
	got, ok := raw.Oldest()
	want, wantOK := ref.Oldest()
	if ok != wantOK || (ok && math.Float64bits(got) != math.Float64bits(want.Timestamp)) {
		r.t.Fatalf("%s: Oldest %v,%v, reference %v,%v", what, got, ok, want.Timestamp, wantOK)
	}
	if lost := r.m.QueryMeta().RawLostTs; math.Float64bits(lost) != math.Float64bits(r.ref.lost) {
		r.t.Fatalf("%s: rawLostTs %v, reference %v", what, lost, r.ref.lost)
	}
}

// check compares everything: the counters, the shape table, which must
// hold exactly the distinct shapes of the live rows with their row
// counts, and the whole ring as one window.
func (r *rawRingRun) check(what string) {
	r.t.Helper()
	r.stats(what)
	raw, ref := r.m.arch.raw, r.ref.ring
	rows := map[rawShape]int{}
	for i := 0; i < ref.Len(); i++ {
		p := ref.At(i)
		rows[shapeOf(&p)]++
	}
	live := 0
	for _, e := range raw.shapes {
		if e.rows == 0 {
			continue
		}
		live++
		if rows[e.rawShape] != e.rows {
			r.t.Fatalf("%s: shape %+v counts %d rows, the ring holds %d", what, e.rawShape, e.rows, rows[e.rawShape])
		}
	}
	if live != len(rows) || len(raw.index) != len(rows) {
		r.t.Fatalf("%s: %d live shape entries (%d indexed), the ring holds %d shapes", what, live, len(raw.index), len(rows))
	}
	r.window(math.Inf(-1), math.Inf(1))
}

// window compares QueryRaw and ScanRaw over [start, end] with the
// reference's SelectRange, sample by sample and bit by bit.
func (r *rawRingRun) window(start, end float64) {
	r.t.Helper()
	want := r.ref.ring.SelectRange(start, end, func(p variorum.NodePower) float64 { return p.Timestamp })
	got := r.m.QueryRaw(start, end)
	var scanned []variorum.NodePower
	r.m.ScanRaw(start, end, func(p *variorum.NodePower) {
		for _, g := range [][]float64{p.SocketCPUWatts, p.SocketMemWatts, p.SocketGPUWatts, p.GPUWatts} {
			if cap(g) != len(g) {
				r.t.Fatalf("[%v, %v]: a scanned group has room past its end (len %d, cap %d)", start, end, len(g), cap(g))
			}
		}
		scanned = append(scanned, cloneSample(p))
	})
	if len(got) != len(want) || len(scanned) != len(want) {
		r.t.Fatalf("[%v, %v]: QueryRaw %d samples, ScanRaw %d, reference %d", start, end, len(got), len(scanned), len(want))
	}
	for i := range want {
		if !sameSample(&got[i], &want[i]) {
			r.t.Fatalf("[%v, %v] sample %d: QueryRaw %+v, reference %+v", start, end, i, got[i], want[i])
		}
		if !sameSample(&scanned[i], &want[i]) {
			r.t.Fatalf("[%v, %v] sample %d: ScanRaw %+v, reference %+v", start, end, i, scanned[i], want[i])
		}
	}
}

// byteReader hands out a fuzz input one byte at a time, then zeros.
type byteReader []byte

func (b *byteReader) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// runRawRingOps seeds a ring of 1..256 samples with restored samples
// (lostBefore math.MinInt16 = -Inf) and then runs the first 512 bytes
// of ops: single pushes of any shape, runs of one shape, windows and
// full checks, with the counters compared after every step.
func runRawRingOps(t testing.TB, capacity uint8, restored uint16, lostBefore int16, ops []byte) {
	r := newRawRingRun(t, int(capacity)+1)
	in := byteReader(ops[:min(len(ops), 512)])
	if n := int(restored % 1024); n > 0 {
		samples := make([]variorum.NodePower, n)
		for i := range samples {
			samples[i] = r.next(i/37, float64(i%3))
		}
		lost := float64(lostBefore)
		if lostBefore == math.MinInt16 {
			lost = math.Inf(-1)
		}
		r.restore(samples, lost)
	}
	r.check("restore")
	for step := 0; len(in) > 0; step++ {
		switch op := in.next(); op % 8 {
		case 0, 1, 2, 3:
			r.push(r.next(op/8, float64(in.next()%4)))
		case 4, 5:
			k, n := in.next(), in.next()%64
			for i := 0; i < n; i++ {
				r.push(r.next(k, 2))
			}
		case 6:
			start := r.now - float64(in.next())*2
			r.window(start, start+float64(in.next()-32))
		case 7:
			r.check(fmt.Sprintf("step %d", step))
		}
		r.stats(fmt.Sprintf("step %d", step))
	}
	r.check("end")
}

// FuzzRawRing is the differential oracle for the columnar raw ring: any
// sequence of restore, pushes of mixed shapes and window reads must
// leave it indistinguishable from a record ring holding the same
// samples — every window, loss watermark, length, eviction count and
// oldest timestamp, bit for bit.
func FuzzRawRing(f *testing.F) {
	f.Add(uint8(7), uint16(0), int16(0), []byte{0, 8, 16, 24, 6, 10, 40})
	f.Add(uint8(15), uint16(300), int16(1100), []byte{4, 1, 20, 4, 5, 20, 6, 0, 60})
	f.Add(uint8(0), uint16(3), int16(math.MinInt16), []byte{0, 1, 8, 2, 6, 1, 33})
	f.Fuzz(func(t *testing.T, capacity uint8, restored uint16, lostBefore int16, ops []byte) {
		runRawRingOps(t, capacity, restored, lostBefore, ops)
	})
}

// TestScanRawMatchesReference runs the oracle on long seeded sequences:
// rings that wrap many times, change shape mid-ring and widen their
// stride while holding other shapes.
func TestScanRawMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, capacity := range []uint8{0, 1, 4, 31, 200} {
		ops := make([]byte, 512)
		rng.Read(ops)
		runRawRingOps(t, capacity, uint16(rng.Intn(700)), int16(rng.Intn(2000)), ops)
	}
}

// TestScanRawWhileSampling reads the ring through ScanRaw and QueryRaw
// from two goroutines while a third samples into it under the module
// lock, the live-mode pattern; every sample read must be whole.
func TestScanRawWhileSampling(t *testing.T) {
	m := New(Config{BufferSamples: 64, Tiers: []TierSpec{}})
	const pushes = 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= pushes; i++ {
			p := rawSample(i/300, i, float64(i))
			m.mu.Lock()
			m.arch.push(p)
			m.mu.Unlock()
		}
	}()
	whole := func(p *variorum.NodePower) error {
		want := rawSample(int(p.Timestamp)/300, int(p.Timestamp), p.Timestamp)
		if !sameSample(p, &want) {
			return fmt.Errorf("torn sample at ts %v: %+v, want %+v", p.Timestamp, *p, want)
		}
		return nil
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var err error
				m.ScanRaw(0, pushes, func(p *variorum.NodePower) {
					if err == nil {
						err = whole(p)
					}
				})
				for _, p := range m.QueryRaw(0, pushes) {
					if err == nil {
						err = whole(&p)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRawRingFootprint pins the ring's cost per sample: 100 000 Lassen
// samples, the paper's default buffer, retain at most 104 heap bytes
// each — timestamp, shape index and 11 channel values — where a record
// ring of NodePower retained 240.
func TestRawRingFootprint(t *testing.T) {
	node, err := hw.NewNode("lassen1", hw.LassenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := variorum.GetNodePower(node, simtime.Time(0))
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const samples = DefaultBufferSamples
	before := liveHeap()
	r := newRawRing(samples)
	for i := 0; i < samples; i++ {
		p.Timestamp = float64(2 * i)
		r.push(&p)
	}
	perSample := float64(liveHeap()-before) / samples
	if r.Len() != samples {
		t.Fatalf("ring holds %d samples, want %d", r.Len(), samples)
	}
	runtime.KeepAlive(r)
	t.Logf("%d Lassen samples retain %.1f B each", samples, perSample)
	if perSample > 104 {
		t.Fatalf("%d Lassen samples retain %.1f B each, want <= 104", samples, perSample)
	}
}

// fullLassenRing is the paper's default ring, full of Lassen samples
// 2 s apart (timestamps 0..199 998).
func fullLassenRing(b *testing.B) *rawRing {
	node, err := hw.NewNode("lassen1", hw.LassenConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	p := variorum.GetNodePower(node, simtime.Time(0))
	r := newRawRing(DefaultBufferSamples)
	for i := 0; i < DefaultBufferSamples; i++ {
		p.Timestamp = float64(2 * i)
		r.push(&p)
	}
	return r
}

// BenchmarkRawRingPush measures the node agent's per-sample store: one
// Lassen sample into the full default ring, evicting the oldest.
func BenchmarkRawRingPush(b *testing.B) {
	r := fullLassenRing(b)
	node, err := hw.NewNode("lassen1", hw.LassenConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	p := variorum.GetNodePower(node, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Timestamp = float64(2 * (DefaultBufferSamples + i))
		r.push(&p)
	}
}

// BenchmarkRawRingScan folds a 300-sample window (10 minutes) of the
// full ring in place, the query engine's raw pushdown.
func BenchmarkRawRingScan(b *testing.B) {
	r := fullLassenRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		r.scan(100_000, 100_598, func(p *variorum.NodePower) { sum += p.NodeWatts + p.GPUWatts[3] })
		if sum == 0 {
			b.Fatal("empty scan")
		}
	}
}

// rawSink keeps the measured copies from being optimised away.
var rawSink []variorum.NodePower

// BenchmarkRawRingQuery copies the same window out, the collect's read.
func BenchmarkRawRingQuery(b *testing.B) {
	r := fullLassenRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rawSink = r.query(100_000, 100_598); len(rawSink) != 300 {
			b.Fatalf("window holds %d samples, want 300", len(rawSink))
		}
	}
}
