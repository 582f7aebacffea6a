package powermon

import (
	"fmt"
	"sort"

	"fluxpower/internal/variorum"
)

// rawRing is the node agent's bounded full-rate sample buffer (§III-A):
// the newest Cap() samples, oldest evicted first. It keeps no
// variorum.NodePower: every column is a flat array of numbers, so the
// garbage collector never scans it, and a Lassen sample costs 100 bytes
// (timestamp, shape index, 11 channel values) instead of a 152-byte
// record, its strings and its slices' own allocation.
//
// Like ringbuf.Ring its columns start empty and double as rows arrive,
// clamped at the capacity, and it is not safe for concurrent use: the
// module's lock guards it.
type rawRing struct {
	// ts and shape hold one entry per slot, vals stride values per slot:
	// NodeWatts, then the CPU, memory, GPU-socket and GPU-device groups
	// in NodePower's field order (tsdb's block column order). A slot's
	// shape says how many of its stride values are live. Until the
	// columns reach the capacity the ring has never wrapped in them.
	ts    []float64
	shape []uint32
	vals  []float64
	// stride is the widest shape ever pushed; a wider one re-lays vals.
	stride   int
	capacity int
	head     int    // slot the next push writes
	length   int    // live rows, <= capacity
	evicted  uint64 // rows overwritten since creation

	// shapes lists each distinct shape among the live rows once, with
	// the number of live rows using it; a shape no row uses is dropped
	// and its entry reused, so the table never outgrows the most
	// distinct shapes the ring has held at once. index finds a shape's
	// entry, free lists the dropped entries and last is the most
	// recently pushed one, which the next sample almost always shares.
	shapes []rawShapeEntry
	index  map[rawShape]uint32
	free   []uint32
	last   uint32

	// view is the sample scan hands to its callback, kept here so a scan
	// allocates nothing.
	view variorum.NodePower
}

// rawShape is everything about a sample that is not a number: identity,
// channel group lengths and which groups are nil — the fields of tsdb's
// blockSchema.
type rawShape struct {
	hostname, arch                   string
	nCPU, nMem, nGPUSock, nGPUDev    int
	gpusPer                          int
	cpuNil, memNil, gpuSNil, gpuDNil bool
}

type rawShapeEntry struct {
	rawShape
	// ends are where the CPU, memory, GPU-socket and GPU-device groups
	// end in a row; ends[3] is the row's width.
	ends [4]int
	rows int // live rows with this shape; 0 = free entry
}

func newShapeEntry(s rawShape) rawShapeEntry {
	e := rawShapeEntry{rawShape: s}
	e.ends[0] = 1 + s.nCPU
	e.ends[1] = e.ends[0] + s.nMem
	e.ends[2] = e.ends[1] + s.nGPUSock
	e.ends[3] = e.ends[2] + s.nGPUDev
	return e
}

func shapeOf(p *variorum.NodePower) rawShape {
	return rawShape{
		hostname: p.Hostname,
		arch:     p.Arch,
		nCPU:     len(p.SocketCPUWatts),
		nMem:     len(p.SocketMemWatts),
		nGPUSock: len(p.SocketGPUWatts),
		nGPUDev:  len(p.GPUWatts),
		gpusPer:  p.GPUsPerSensorEntry,
		cpuNil:   p.SocketCPUWatts == nil,
		memNil:   p.SocketMemWatts == nil,
		gpuSNil:  p.SocketGPUWatts == nil,
		gpuDNil:  p.GPUWatts == nil,
	}
}

// width is how many values a row of this shape holds.
func (e *rawShapeEntry) width() int { return e.ends[3] }

// decode points p at one row: ts and row are the row's timestamp and
// values, which p's channel slices alias (each capped at its group).
func (e *rawShapeEntry) decode(p *variorum.NodePower, ts float64, row []float64) {
	p.Hostname, p.Arch, p.GPUsPerSensorEntry = e.hostname, e.arch, e.gpusPer
	e.values(p, ts, row)
}

// values is decode without the fields every row of the shape shares.
func (e *rawShapeEntry) values(p *variorum.NodePower, ts float64, row []float64) {
	row = row[:e.ends[3]]
	p.Timestamp, p.NodeWatts = ts, row[0]
	p.SocketCPUWatts = group(row, 1, e.ends[0], e.cpuNil)
	p.SocketMemWatts = group(row, e.ends[0], e.ends[1], e.memNil)
	p.SocketGPUWatts = group(row, e.ends[1], e.ends[2], e.gpuSNil)
	p.GPUWatts = group(row, e.ends[2], e.ends[3], e.gpuDNil)
}

// group is the channel group row[from:to], capped there; a nil group
// stays nil.
func group(row []float64, from, to int, isNil bool) []float64 {
	if isNil {
		return nil
	}
	return row[from:to:to]
}

// newRawRing returns a ring holding at most capacity samples. Nothing
// is allocated until the first push.
func newRawRing(capacity int) *rawRing {
	if capacity <= 0 {
		panic(fmt.Sprintf("powermon: raw ring capacity %d must be positive", capacity))
	}
	return &rawRing{capacity: capacity}
}

// Len returns the number of live samples.
func (r *rawRing) Len() int { return r.length }

// Cap returns the most samples the ring will hold.
func (r *rawRing) Cap() int { return r.capacity }

// Evicted returns the number of samples overwritten since creation.
func (r *rawRing) Evicted() uint64 { return r.evicted }

// Oldest returns the oldest live sample's timestamp; ok is false when
// the ring is empty.
func (r *rawRing) Oldest() (ts float64, ok bool) {
	if r.length == 0 {
		return 0, false
	}
	return r.ts[r.slot(0)], true
}

// slot maps the i-th oldest live row to its slot.
func (r *rawRing) slot(i int) int {
	return (r.head - r.length + i + len(r.ts)) % len(r.ts)
}

// push appends p's values, evicting the oldest sample when full. p's
// slices are copied, not kept.
func (r *rawRing) push(p *variorum.NodePower) {
	id := r.intern(p)
	if r.length == len(r.ts) && r.length < r.capacity {
		r.grow(r.length + 1)
	}
	if w := r.shapes[id].width(); w > r.stride {
		r.restride(w)
	}
	slot := r.head
	if r.length == r.capacity {
		r.release(r.shape[slot])
		r.evicted++
	} else {
		r.length++
	}
	r.ts[slot] = p.Timestamp
	r.shape[slot] = id
	row := r.vals[slot*r.stride:]
	row[0] = p.NodeWatts
	n := 1
	n += copy(row[n:], p.SocketCPUWatts)
	n += copy(row[n:], p.SocketMemWatts)
	n += copy(row[n:], p.SocketGPUWatts)
	copy(row[n:], p.GPUWatts)
	r.head = (slot + 1) % len(r.ts)
}

// intern returns the table entry of p's shape, counting one more live
// row on it.
func (r *rawRing) intern(p *variorum.NodePower) uint32 {
	s := shapeOf(p)
	// last always has a live row: the newest one.
	if int(r.last) < len(r.shapes) && r.shapes[r.last].rawShape == s {
		r.shapes[r.last].rows++
		return r.last
	}
	id, ok := r.index[s]
	if !ok {
		if n := len(r.free); n > 0 {
			id, r.free = r.free[n-1], r.free[:n-1]
			r.shapes[id] = newShapeEntry(s)
		} else {
			id = uint32(len(r.shapes))
			r.shapes = append(r.shapes, newShapeEntry(s))
		}
		if r.index == nil {
			r.index = make(map[rawShape]uint32)
		}
		r.index[s] = id
	}
	r.shapes[id].rows++
	r.last = id
	return id
}

// release counts one live row fewer on a shape, dropping the shape (and
// its strings) when no row uses it any more.
func (r *rawRing) release(id uint32) {
	e := &r.shapes[id]
	if e.rows--; e.rows == 0 {
		delete(r.index, e.rawShape)
		*e = rawShapeEntry{}
		r.free = append(r.free, id)
	}
}

// grow moves the live rows into columns with room for at least need of
// them: double the current ones, at most the capacity. It is only
// called while the columns are below capacity, so the ring has not
// wrapped in them.
func (r *rawRing) grow(need int) {
	n := min(max(need, 2*len(r.ts)), r.capacity)
	ts := make([]float64, n)
	copy(ts, r.ts[:r.length])
	shape := make([]uint32, n)
	copy(shape, r.shape[:r.length])
	vals := make([]float64, n*r.stride)
	copy(vals, r.vals[:r.length*r.stride])
	r.ts, r.shape, r.vals, r.head = ts, shape, vals, r.length
}

// restride re-lays vals at a wider stride, slot for slot.
func (r *rawRing) restride(stride int) {
	vals := make([]float64, len(r.ts)*stride)
	for i := 0; r.stride > 0 && i < len(r.ts); i++ {
		copy(vals[i*stride:], r.vals[i*r.stride:(i+1)*r.stride])
	}
	r.vals, r.stride = vals, stride
}

// window returns the half-open range [lo, hi) of live rows, oldest
// first, whose timestamp lies in [start, end]. Timestamps are
// non-decreasing, so both ends are binary searches.
func (r *rawRing) window(start, end float64) (lo, hi int) {
	lo = sort.Search(r.length, func(i int) bool { return r.ts[r.slot(i)] >= start })
	hi = lo + sort.Search(r.length-lo, func(i int) bool { return r.ts[r.slot(lo+i)] > end })
	return lo, hi
}

// next returns the slot after slot, wrapping.
func (r *rawRing) next(slot int) int {
	if slot++; slot == len(r.ts) {
		return 0
	}
	return slot
}

// query returns a copy of the samples in [start, end], oldest first:
// one slice of records whose channel slices share one array.
func (r *rawRing) query(start, end float64) []variorum.NodePower {
	lo, hi := r.window(start, end)
	if hi <= lo {
		return nil
	}
	n := 0
	for i, slot := lo, r.slot(lo); i < hi; i, slot = i+1, r.next(slot) {
		n += r.shapes[r.shape[slot]].width()
	}
	out := make([]variorum.NodePower, hi-lo)
	slab := make([]float64, n)
	for i, slot := 0, r.slot(lo); i < len(out); i, slot = i+1, r.next(slot) {
		s := &r.shapes[r.shape[slot]]
		row := slab[:copy(slab, r.vals[slot*r.stride:slot*r.stride+s.width()])]
		slab = slab[len(row):]
		s.decode(&out[i], r.ts[slot], row)
	}
	return out
}

// scan calls fn on every sample query would return, in the same order,
// without copying: fn gets one reused record whose channel slices alias
// the ring, so it must keep neither the record nor its slices past the
// call, nor modify them.
func (r *rawRing) scan(start, end float64, fn func(*variorum.NodePower)) {
	lo, hi := r.window(start, end)
	if hi <= lo {
		return
	}
	var s *rawShapeEntry
	for i, slot := lo, r.slot(lo); i < hi; i, slot = i+1, r.next(slot) {
		if e := &r.shapes[r.shape[slot]]; e != s {
			s = e
			r.view.Hostname, r.view.Arch, r.view.GPUsPerSensorEntry = s.hostname, s.arch, s.gpusPer
		}
		s.values(&r.view, r.ts[slot], r.vals[slot*r.stride:])
		fn(&r.view)
	}
	// Hold on to no row: a later grow would otherwise keep the old
	// columns alive through the view.
	r.view = variorum.NodePower{}
}
