package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/query"
	"fluxpower/internal/variorum"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created. Parent is the id of the span that was
// open on the driver goroutine when this one began (0 for a root); Req
// groups the spans of one operation (a round, a request).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Link spans only.
	From  int32  `json:"from,omitempty"`
	To    int32  `json:"to,omitempty"`
	Topic string `json:"topic,omitempty"`
	Bytes int    `json:"bytes,omitempty"`

	child int64 // time covered by child spans, for self time
}

// nameAgg sums every span of one name, kept even for spans the retention
// cap dropped, so self-time shares always cover the whole traced phase.
type nameAgg struct {
	Count  uint64 `json:"count"`
	Kept   uint64 `json:"kept"` // spans of this name present in the file
	Ns     int64  `json:"total_ns"`
	SelfNs int64  `json:"self_ns"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

// maxSpans bounds the spans kept for the file. Root spans are always
// kept; children beyond the cap are folded into the per-name totals
// only. A 792-rank control round alone sends ten thousand messages.
const maxSpans = 150_000

// tracer records spans in memory. One goroutine at a time owns the
// open-span stack: the driver, or the single client a traced query-mixed
// run uses. When off (or nil, in an untraced run) begin returns nil and
// end ignores a nil span, so call sites stay unbranched.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	spans   []*span
	dropped uint64
	byName  map[string]*nameAgg
	nextID  atomic.Uint64

	stack []*span // driver goroutine only
	req   uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byName: map[string]*nameAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested under the driver goroutine's current span.
func (t *tracer) begin(name string) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	s := &span{ID: t.nextID.Add(1), Name: name, Req: t.req, Start: t.now()}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.stack = append(t.stack, s)
	return s
}

// beginReq opens a root span that starts a new operation.
func (t *tracer) beginReq(name string) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	t.req++
	return t.begin(name)
}

// end closes a span opened with begin: pops it, credits its duration to
// its parent's child time, and records it.
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == s {
		t.stack = t.stack[:n-1]
	}
	if n := len(t.stack); n > 0 && t.stack[n-1].ID == s.Parent {
		t.stack[n-1].child += s.End - s.Start
	}
	t.record(s)
}

func (t *tracer) record(s *span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.byName[s.Name]
	if a == nil {
		a = &nameAgg{}
		t.byName[s.Name] = a
	}
	a.Count++
	a.Ns += s.End - s.Start
	a.SelfNs += s.End - s.Start - s.child
	a.Bytes += uint64(s.Bytes)
	if s.Parent != 0 && len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	a.Kept++
	t.spans = append(t.spans, s)
}

func (t *tracer) agg(name string) nameAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.byName[name]; a != nil {
		return *a
	}
	return nameAgg{}
}

// traceFile is the span file's layout.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// The traced half of the measured phase, on the spans' clock; the
	// root spans of the workload's rounds should cover nearly all of it.
	TracedStartNs int64              `json:"traced_start_ns"`
	TracedEndNs   int64              `json:"traced_end_ns"`
	Dropped       uint64             `json:"dropped_child_spans"`
	ByName        map[string]nameAgg `json:"by_name"`
	Spans         []*span            `json:"spans"`
}

// write stores the spans, ordered by start, in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64, tracedStart, tracedEnd int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	byName := make(map[string]nameAgg, len(t.byName))
	for k, v := range t.byName {
		byName[k] = *v
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = json.NewEncoder(w).Encode(traceFile{
		Workload: workload, Seed: seed,
		TracedStartNs: tracedStart, TracedEndNs: tracedEnd,
		Dropped: t.dropped, ByName: byName, Spans: t.spans,
	})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// tracedLink is the cluster.Config.WrapLink seam: a span per Send with
// the hop's endpoints, topic and encoded size. Delivery is synchronous
// in the simulation, so the receiver's own sends nest inside this span
// and its self time is the cost of this hop alone.
type tracedLink struct {
	t        *tracer
	from, to int32
	inner    transport.Link
}

func (l *tracedLink) Send(m *msg.Message) error {
	s := l.t.begin("link.send")
	if s == nil {
		return l.inner.Send(m)
	}
	s.From, s.To, s.Topic, s.Bytes = l.from, l.to, m.Topic, m.EncodedSize()
	err := l.inner.Send(m)
	l.t.end(s)
	return err
}

func (l *tracedLink) Close() error { return l.inner.Close() }

// wrapLink returns the WrapLink hook for a traced cluster, or nil.
func (t *tracer) wrapLink() func(from, to int32, l transport.Link) transport.Link {
	if t == nil {
		return nil
	}
	return func(from, to int32, l transport.Link) transport.Link {
		return &tracedLink{t: t, from: from, to: to, inner: l}
	}
}

// tracedSource is the query.Config.Source seam: a span per storage read.
type tracedSource struct {
	t     *tracer
	inner query.Source
}

func (s tracedSource) QueryMeta() query.SourceMeta { return s.inner.QueryMeta() }

func (s tracedSource) QueryRaw(start, end float64) []variorum.NodePower {
	sp := s.t.begin("source.raw")
	defer s.t.end(sp)
	return s.inner.QueryRaw(start, end)
}

func (s tracedSource) QueryStoreRaw(start, end float64) ([]variorum.NodePower, error) {
	sp := s.t.begin("source.store_raw")
	defer s.t.end(sp)
	return s.inner.QueryStoreRaw(start, end)
}

func (s tracedSource) QueryTier(periodSec float64, durable bool, start, end float64) []query.Bucket {
	sp := s.t.begin("source.tier")
	defer s.t.end(sp)
	return s.inner.QueryTier(periodSec, durable, start, end)
}

// source wraps src for a traced cluster and returns it unchanged otherwise.
func (t *tracer) source(src query.Source) query.Source {
	if t == nil {
		return src
	}
	return tracedSource{t: t, inner: src}
}
