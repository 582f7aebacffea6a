package broker

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/simtime"
)

// Future is the result handle of an in-flight RPC (RFC 6's matchtag
// future). It resolves exactly once: with the peer's response, with a
// request-construction error, or — when the RPC was armed with a deadline
// — with ETIMEDOUT after the deadline passes without a response. On every
// completion path the matchtag's pending-table entry is reclaimed, so a
// lost response cannot leak broker state.
//
// In the deterministic simulation, in-memory links deliver responses
// synchronously, so a Future is normally resolved before RPC returns and
// Wait adds zero latency. Over live transports, Wait blocks on the
// response; the broker's deadline wheel (running on its timer provider)
// enforces the timeout in both modes, so an unanswered request in a
// simulation times out at the same simulated instant a live one would at
// wall time. The deadline is armed after delivery, so a reply that
// arrives during delivery arms no timer at all. That matters because the
// simulation scheduler stops timers lazily: a stopped timer stays in its
// heap until its deadline comes due.
type Future struct {
	b      *Broker
	tag    uint32
	topic  string
	nodeID int32

	done chan struct{}

	mu        sync.Mutex
	resolved  bool
	resp      *msg.Message
	err       error
	cbs       []ResponseHandler
	wheel     *deadlineWheel
	wheelTick int64
}

// Done returns a channel closed when the future resolves. Select on it to
// multiplex several RPCs.
func (f *Future) Done() <-chan struct{} { return f.done }

// Resolved reports whether the future has completed (without blocking).
func (f *Future) Resolved() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Result returns the outcome of a resolved future. Calling it before the
// future resolves returns (nil, ErrNotResolved); use Wait or Done first.
func (f *Future) Result() (*msg.Message, error) {
	if !f.Resolved() {
		return nil, ErrNotResolved
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resp, f.err
}

// Wait blocks until the future resolves or the wall-clock timeout passes,
// whichever is first, and returns the outcome. A non-positive timeout
// waits indefinitely (rely on the RPC's own deadline instead).
//
// On a broker driven by the deterministic scheduler, Wait never blocks:
// either the response already arrived (synchronous in-memory delivery) or
// it cannot arrive without the simulation advancing, in which case Wait
// fails immediately with ErrNoSyncReply and reclaims the matchtag —
// blocking would deadlock the single simulation thread.
func (f *Future) Wait(timeout time.Duration) (*msg.Message, error) {
	if f.b.sync {
		if !f.Resolved() {
			f.b.reclaim(f.tag)
			f.complete(
				msg.NewErrorResponse(f.requestStub(), f.b.rank, msg.EAGAIN, "no synchronous reply"),
				fmt.Errorf("%w: %q to rank %d", ErrNoSyncReply, f.topic, f.nodeID),
			)
		}
		return f.Result()
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-f.done:
	case <-expired:
		// Backstop for futures without a broker-side deadline (or whose
		// wheel tick has not come up yet): reclaim and time out here.
		f.b.reclaim(f.tag)
		f.expire()
	}
	return f.Result()
}

// WaitContext blocks until the future resolves or ctx is done, whichever
// is first. Cancellation abandons the RPC (the matchtag is reclaimed, a
// late response is dropped as a stray) and returns ctx.Err().
//
// On a broker driven by the deterministic scheduler it behaves exactly
// like Wait: it never blocks, failing unresolved futures immediately with
// ErrNoSyncReply — blocking on ctx would deadlock the single simulation
// thread. Callers holding a context therefore work unchanged in both
// modes, which is what lets HTTP handlers enforce per-request deadlines
// over either transport.
func (f *Future) WaitContext(ctx context.Context) (*msg.Message, error) {
	if f.b.sync {
		if err := ctx.Err(); err != nil {
			f.Cancel()
			return nil, err
		}
		return f.Wait(0)
	}
	select {
	case <-f.done:
		return f.Result()
	case <-ctx.Done():
		f.Cancel()
		return nil, ctx.Err()
	}
}

// Then registers cb to run when the future resolves; if it already has,
// cb runs inline. The response passed to cb is never nil: failures
// (timeouts included) are delivered as error responses, so callback code
// handles every outcome through resp.Err(). Callbacks run on whichever
// goroutine resolves the future.
func (f *Future) Then(cb ResponseHandler) {
	if cb == nil {
		return
	}
	f.mu.Lock()
	if !f.resolved {
		f.cbs = append(f.cbs, cb)
		f.mu.Unlock()
		return
	}
	resp := f.resp
	f.mu.Unlock()
	cb(resp)
}

// Cancel abandons the RPC: the matchtag is reclaimed and the future
// resolves with ErrCanceled (no-op if already resolved). A response
// arriving later is dropped as a stray.
func (f *Future) Cancel() {
	f.b.reclaim(f.tag)
	f.complete(
		msg.NewErrorResponse(f.requestStub(), f.b.rank, msg.EAGAIN, "rpc canceled"),
		fmt.Errorf("%w: %q to rank %d", ErrCanceled, f.topic, f.nodeID),
	)
}

// resolve completes the future with a peer response.
func (f *Future) resolve(m *msg.Message) {
	f.complete(m, m.Err())
}

// expire completes the future with ETIMEDOUT and bumps the broker's
// timeout counter. The counter moves only when this call wins the
// completion, and before the waiters wake, so a caller returning from
// Wait with ErrTimeout always sees its timeout counted. Safe to call on
// an already-resolved future.
func (f *Future) expire() {
	resp := msg.NewErrorResponse(f.requestStub(), f.b.rank, msg.ETIMEDOUT, "rpc deadline exceeded")
	err := fmt.Errorf("%w: %q to rank %d", ErrTimeout, f.topic, f.nodeID)
	if !f.claim(resp, err) {
		return
	}
	f.b.mu.Lock()
	f.b.stats.RPCTimeouts++
	f.b.mu.Unlock()
	f.finish()
}

// complete is the single resolution point: first caller wins, later calls
// are no-ops.
func (f *Future) complete(resp *msg.Message, err error) {
	if f.claim(resp, err) {
		f.finish()
	}
}

// claim records the outcome unless the future already has one, and
// reports whether this call won. Waiters wake only at finish.
func (f *Future) claim(resp *msg.Message, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resolved {
		return false
	}
	f.resolved = true
	f.resp, f.err = resp, err
	return true
}

// finish detaches a claimed future from the deadline wheel, wakes its
// waiters and runs any registered callbacks. Detaching first means a
// waiter that returns never finds its future still in a bucket.
func (f *Future) finish() {
	f.mu.Lock()
	cbs, resp := f.cbs, f.resp
	f.cbs = nil
	wheel, tick := f.wheel, f.wheelTick
	f.wheel = nil
	f.mu.Unlock()
	if wheel != nil {
		wheel.cancel(f, tick)
	}
	close(f.done)
	for _, cb := range cbs {
		cb(resp)
	}
}

// requestStub reconstructs enough of the original request for error
// responses synthesized locally (timeout, cancel, sim no-reply).
func (f *Future) requestStub() *msg.Message {
	return &msg.Message{Type: msg.TypeRequest, Topic: f.topic, Matchtag: f.tag, NodeID: f.nodeID, Sender: f.b.rank}
}

// wheelQuantum is the deadline wheel's bucket width. RPCs whose deadlines
// fall in the same bucket share one timer, so a fan-out of N requests with
// a common timeout costs one timer instead of N. Deadlines are quantized
// up: a timeout fires at most one quantum late, never early.
const wheelQuantum = 10 * time.Millisecond

// deadlineWheel expires RPC futures on the broker's timer provider — the
// deterministic scheduler in simulation, the wall clock in live mode. It
// is a calendar wheel keyed by quantized deadline: buckets are created on
// demand and their timers are stopped as soon as the last live future in
// them resolves, so an idle broker keeps no timers armed.
type deadlineWheel struct {
	timers simtime.TimerProvider

	mu      sync.Mutex
	buckets map[int64]*wheelBucket
}

type wheelBucket struct {
	timer   simtime.TimerHandle
	futures map[*Future]struct{}
}

func newDeadlineWheel(timers simtime.TimerProvider) *deadlineWheel {
	return &deadlineWheel{timers: timers, buckets: make(map[int64]*wheelBucket)}
}

// schedule arms f to expire at due (quantized up to the next bucket
// boundary), unless f has already resolved. The resolved check, the
// wheel back-pointer and the bucket insert all happen under the wheel
// lock, so a resolved future never sits in a bucket: a concurrent finish
// either sees no wheel, or blocks in cancel until the insert is done and
// then removes f.
func (w *deadlineWheel) schedule(f *Future, due simtime.Time) {
	tick := int64((due.Duration() + wheelQuantum - 1) / wheelQuantum)
	w.mu.Lock()
	defer w.mu.Unlock()
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return
	}
	f.wheel, f.wheelTick = w, tick
	f.mu.Unlock()
	bkt, ok := w.buckets[tick]
	if !ok {
		bkt = &wheelBucket{futures: make(map[*Future]struct{})}
		w.buckets[tick] = bkt
		bkt.timer = w.timers.AfterFunc(time.Duration(tick)*wheelQuantum-w.timers.Now().Duration(), func(simtime.Time) {
			w.fire(tick)
		})
	}
	bkt.futures[f] = struct{}{}
}

// fire expires every future still pending in a due bucket.
func (w *deadlineWheel) fire(tick int64) {
	w.mu.Lock()
	bkt := w.buckets[tick]
	delete(w.buckets, tick)
	w.mu.Unlock()
	if bkt == nil {
		return
	}
	for f := range bkt.futures {
		f.b.reclaim(f.tag)
		f.expire()
	}
}

// cancel detaches a resolved future; the bucket's timer is stopped once
// no live futures remain in it.
func (w *deadlineWheel) cancel(f *Future, tick int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	bkt, ok := w.buckets[tick]
	if !ok {
		return
	}
	delete(bkt.futures, f)
	if len(bkt.futures) == 0 {
		bkt.timer.Stop()
		delete(w.buckets, tick)
	}
}
