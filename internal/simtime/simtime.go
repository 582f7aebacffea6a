// Package simtime provides a deterministic simulated clock and timer
// scheduler used to drive the cluster simulation.
//
// The paper's experiments run for minutes to hours of wall-clock time on
// real machines. The simulation replays them deterministically: all
// components (hardware sensors, applications, Flux broker modules) observe
// a shared Clock that advances between discrete events, and register
// Timers that fire when their deadline is reached. Nothing in the
// repository reads the host's wall clock during a simulation.
//
// # Event queues and shards
//
// The scheduler is a discrete-event core: every component schedules its
// own next event, so simulated time jumps from deadline to deadline and
// idle components cost nothing. Events live on per-shard binary heaps.
// Shard assignment is a locality/ordering tool, not a concurrency tool —
// the scheduler stays single-threaded and callbacks run inline.
//
// The determinism contract: events fire in (deadline, shard, seq) order,
// where seq is a per-shard creation counter. Two runs that schedule the
// same events on the same shards observe the same total order. Shard 0 is
// conventionally the simulation engine's own shard; because it is the
// lowest shard, engine events at a shared instant (job demand updates)
// always run before module events (power sampling) at that instant.
package simtime

import (
	"fmt"
	"sort"
	"time"
)

// Time is a simulated instant, measured as a duration since the start of
// the simulation. It is deliberately not time.Time: simulations have no
// calendar epoch, and keeping the type distinct prevents accidentally
// mixing simulated and host time.
type Time time.Duration

// Seconds returns the instant expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration converts the instant to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

func (t Time) String() string {
	return fmt.Sprintf("T+%s", time.Duration(t))
}

// Clock is the read-only view of simulated time handed to components.
type Clock interface {
	// Now returns the current simulated instant.
	Now() Time
}

// TimerFunc is invoked when a timer fires. The argument is the instant the
// timer fired at (which equals its deadline).
type TimerFunc func(now Time)

// Timer is a handle to a scheduled callback. Timers are one-shot unless
// created by TickEvery, which re-arms itself after each firing.
type Timer struct {
	deadline Time
	seq      uint64
	fn       TimerFunc
	period   time.Duration // 0 for one-shot
	stopped  bool
	index    int // heap index, -1 when popped

	shard *shard
	// pooled one-shot timers return to their shard's free list when they
	// pop; gen invalidates stale EventRef handles to a recycled Timer.
	pooled bool
	gen    uint64
}

// Stop cancels the timer. It is safe to call from within the timer's own
// callback (the periodic re-arm checks the flag) and safe to call twice.
func (t *Timer) Stop() { t.stopped = true }

// shard is one event queue: a binary heap of timers plus the shard's own
// creation-order counter and free list of pooled timers.
type shard struct {
	id    int
	seq   uint64
	queue timerHeap
	free  []*Timer
}

// head returns the earliest timer in the shard (nil when empty). Stopped
// timers are pruned here so an abandoned head cannot hide a live event.
func (sh *shard) head() *Timer {
	for len(sh.queue) > 0 {
		t := sh.queue[0]
		if !t.stopped {
			return t
		}
		popTimer(&sh.queue)
		t.shard.recycle(t)
	}
	return nil
}

// recycle returns a pooled one-shot timer to the free list once it has
// left the heap for good, bumping gen so stale handles become inert.
func (sh *shard) recycle(t *Timer) {
	if !t.pooled {
		return
	}
	t.gen++
	t.fn = nil
	t.stopped = false
	sh.free = append(sh.free, t)
}

// Scheduler owns simulated time. It is single-threaded by design: the
// simulation engine calls Advance (or Run) from one goroutine, and every
// timer callback executes inline on that goroutine. This makes whole-cluster
// experiments deterministic and race-free without locking in hot paths.
type Scheduler struct {
	now    Time
	shards []*shard
}

// NewScheduler returns a single-shard Scheduler positioned at T+0. Its
// firing order — (deadline, creation seq) — matches the historical tick
// scheduler exactly.
func NewScheduler() *Scheduler {
	return NewShardedScheduler(1)
}

// NewShardedScheduler returns a Scheduler with n event-queue shards
// (minimum 1). Timers scheduled through the Scheduler's own methods land
// on shard 0; Shard(i) binds components to other shards.
func NewShardedScheduler(n int) *Scheduler {
	if n < 1 {
		n = 1
	}
	s := &Scheduler{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{id: i}
	}
	return s
}

// NumShards returns the shard count.
func (s *Scheduler) NumShards() int { return len(s.shards) }

// Now implements Clock.
func (s *Scheduler) Now() Time { return s.now }

// After schedules fn to run once, d from now. A non-positive d fires on the
// next Advance step at the current instant.
func (s *Scheduler) After(d time.Duration, fn TimerFunc) *Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(0, s.now.Add(d), 0, fn)
}

// At schedules fn to run once at the absolute instant t. Instants in the
// past fire at the current instant on the next Advance.
func (s *Scheduler) At(t Time, fn TimerFunc) *Timer {
	if t < s.now {
		t = s.now
	}
	return s.schedule(0, t, 0, fn)
}

// TickEvery schedules fn to run every period, first firing one period from
// now. It panics on a non-positive period: a zero-period repeating timer
// would wedge the simulation at a single instant.
func (s *Scheduler) TickEvery(period time.Duration, fn TimerFunc) *Timer {
	if period <= 0 {
		panic("simtime: TickEvery requires a positive period")
	}
	return s.schedule(0, s.now.Add(period), period, fn)
}

func (s *Scheduler) schedule(shardID int, deadline Time, period time.Duration, fn TimerFunc) *Timer {
	if fn == nil {
		panic("simtime: nil TimerFunc")
	}
	if shardID < 0 || shardID >= len(s.shards) {
		panic(fmt.Sprintf("simtime: shard %d out of range [0,%d)", shardID, len(s.shards)))
	}
	sh := s.shards[shardID]
	t := &Timer{deadline: deadline, seq: sh.seq, fn: fn, period: period, shard: sh}
	sh.seq++
	pushTimer(&sh.queue, t)
	return t
}

// nextShard returns the shard holding the globally earliest live timer,
// ordered by (deadline, shard). nil when every queue is empty.
func (s *Scheduler) nextShard() *shard {
	var best *shard
	var bestDeadline Time
	for _, sh := range s.shards {
		h := sh.head()
		if h == nil {
			continue
		}
		if best == nil || h.deadline < bestDeadline {
			best = sh
			bestDeadline = h.deadline
		}
	}
	return best
}

// Advance moves simulated time forward by d, firing every due timer in
// deadline order (ties broken by shard, then creation order). It returns
// the number of timer callbacks that ran.
func (s *Scheduler) Advance(d time.Duration) int {
	if d < 0 {
		panic("simtime: negative Advance")
	}
	return s.AdvanceTo(s.now.Add(d))
}

// AdvanceTo moves simulated time forward to the absolute instant t, firing
// every timer with deadline <= t. Timers scheduled by callbacks are honored
// if they fall within the window. It returns the number of callbacks run.
func (s *Scheduler) AdvanceTo(t Time) int {
	if t < s.now {
		panic("simtime: AdvanceTo into the past")
	}
	fired := 0
	for {
		sh := s.nextShard()
		if sh == nil || sh.queue[0].deadline > t {
			break
		}
		tm := popTimer(&sh.queue)
		// Time advances to the timer's deadline before the callback runs,
		// so the callback observes Now() == its deadline.
		s.now = tm.deadline
		tm.fn(s.now)
		fired++
		if tm.period > 0 && !tm.stopped {
			tm.deadline = tm.deadline.Add(tm.period)
			pushTimer(&sh.queue, tm)
		} else {
			sh.recycle(tm)
		}
	}
	s.now = t
	return fired
}

// Step advances time to the next pending timer deadline and fires all
// timers due at that instant. It reports whether any timer fired (false
// means the queue was empty and time did not move).
func (s *Scheduler) Step() bool {
	sh := s.nextShard()
	if sh == nil {
		return false
	}
	s.AdvanceTo(sh.queue[0].deadline)
	return true
}

// StepLimit fires the next pending event batch if its deadline is at or
// before limit, reporting whether it did. It leaves time untouched when
// the next event lies beyond the limit (or no events remain) — the
// event-driven engine uses it to jump between events without overshooting
// an experiment window.
func (s *Scheduler) StepLimit(limit Time) bool {
	sh := s.nextShard()
	if sh == nil || sh.queue[0].deadline > limit {
		return false
	}
	s.AdvanceTo(sh.queue[0].deadline)
	return true
}

// Run drives the scheduler until no timers remain or the instant limit is
// reached, whichever comes first. It returns the instant at which it
// stopped. Use a limit: periodic timers never drain on their own.
func (s *Scheduler) Run(limit Time) Time {
	for s.StepLimit(limit) {
	}
	if s.now < limit {
		s.now = limit
	}
	return s.now
}

// Pending returns the number of live (unstopped) timers across all shards.
func (s *Scheduler) Pending() int {
	n := 0
	for _, sh := range s.shards {
		for _, t := range sh.queue {
			if !t.stopped {
				n++
			}
		}
	}
	return n
}

// PendingDeadlines returns the sorted deadlines of live timers; useful in
// tests and debugging.
func (s *Scheduler) PendingDeadlines() []Time {
	var out []Time
	for _, sh := range s.shards {
		for _, t := range sh.queue {
			if !t.stopped {
				out = append(out, t.deadline)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// timerHeap orders timers by (deadline, seq) so equal deadlines fire in
// creation order within a shard; cross-shard ties resolve by shard id in
// Scheduler.nextShard, giving the global (deadline, shard, seq) order.
type timerHeap []*Timer

func (h timerHeap) less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// pushTimer and popTimer are container/heap's algorithms specialised to
// *Timer: the interface indirection and per-operation allocations of
// heap.Push(any) are measurable on the hot event paths.
func pushTimer(h *timerHeap, t *Timer) {
	t.index = len(*h)
	*h = append(*h, t)
	// Sift up.
	i := t.index
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func popTimer(h *timerHeap) *Timer {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	t := old[n]
	old[n] = nil
	t.index = -1
	*h = old[:n]
	// Sift down from the root.
	hh := *h
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && hh.less(right, left) {
			smallest = right
		}
		if !hh.less(smallest, i) {
			break
		}
		hh.swap(i, smallest)
		i = smallest
	}
	return t
}
