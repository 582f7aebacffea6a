package broker

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/simtime"
)

// failingLink is a transport.Link whose sends always fail — a dead TCP
// connection from the broker's point of view.
type failingLink struct{ err error }

func (l failingLink) Send(*msg.Message) error { return l.err }
func (l failingLink) Close() error            { return nil }

// silentService registers a service on b that accepts requests and never
// responds — the shape of a hung or dead peer.
func silentService(t *testing.T, b *Broker, topic string) {
	t.Helper()
	if err := b.RegisterService(topic, func(req *Request) {}); err != nil {
		t.Fatal(err)
	}
}

func TestSimRPCResolvesSynchronously(t *testing.T) {
	inst := newInstance(t, 3, 2)
	f := inst.Root().RPC(2, "broker.ping", nil)
	if !f.Resolved() {
		t.Fatal("in-memory RPC not resolved before return")
	}
	resp, err := f.Result()
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Rank int32 `json:"rank"`
	}
	if err := resp.Unmarshal(&body); err != nil || body.Rank != 2 {
		t.Fatalf("resp %+v err=%v", body, err)
	}
	// Done channel is closed for resolved futures.
	select {
	case <-f.Done():
	default:
		t.Fatal("Done not closed on resolved future")
	}
	if inst.Root().PendingRPCs() != 0 {
		t.Fatalf("pending table holds %d entries after resolution", inst.Root().PendingRPCs())
	}
}

func TestResultBeforeResolution(t *testing.T) {
	inst := newInstance(t, 2, 2)
	silentService(t, inst.Broker(1), "mute.svc")
	f := inst.Root().RPC(1, "mute.svc", nil)
	if f.Resolved() {
		t.Fatal("silent service resolved the future")
	}
	if _, err := f.Result(); !errors.Is(err, ErrNotResolved) {
		t.Fatalf("Result before resolution: err=%v, want ErrNotResolved", err)
	}
}

func TestSimCallNoReplyReclaimsMatchtag(t *testing.T) {
	// An asynchronous responder under the deterministic scheduler: Call
	// must fail with ErrNoSyncReply instead of blocking the simulation
	// thread, and — the bug this PR fixes — the pending-table entry must
	// be reclaimed, not leaked.
	inst := newInstance(t, 2, 2)
	silentService(t, inst.Broker(1), "mute.svc")
	for i := 0; i < 10; i++ {
		_, err := inst.Root().Call(1, "mute.svc", nil)
		if !errors.Is(err, ErrNoSyncReply) {
			t.Fatalf("err=%v, want ErrNoSyncReply", err)
		}
	}
	if n := inst.Root().PendingRPCs(); n != 0 {
		t.Fatalf("%d matchtags leaked by unanswered Calls", n)
	}
}

func TestSimRPCTimeoutFiresOnSchedulerAdvance(t *testing.T) {
	inst := newInstance(t, 2, 2)
	silentService(t, inst.Broker(1), "mute.svc")
	f := inst.Root().RPCWithTimeout(1, "mute.svc", nil, 500*time.Millisecond)
	if f.Resolved() {
		t.Fatal("resolved before any time passed")
	}
	inst.sched.Advance(400 * time.Millisecond)
	if f.Resolved() {
		t.Fatal("deadline fired early")
	}
	inst.sched.Advance(200 * time.Millisecond)
	if !f.Resolved() {
		t.Fatal("deadline did not fire at simulated timeout")
	}
	resp, err := f.Result()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err=%v, want ErrTimeout", err)
	}
	if resp == nil || resp.Errnum != msg.ETIMEDOUT {
		t.Fatalf("timeout response %+v, want ETIMEDOUT", resp)
	}
	if n := inst.Root().PendingRPCs(); n != 0 {
		t.Fatalf("timed-out RPC left %d pending entries", n)
	}
	if got := inst.Root().Stats().RPCTimeouts; got != 1 {
		t.Fatalf("RPCTimeouts=%d, want 1", got)
	}
}

func TestDeadlineWheelSharesBuckets(t *testing.T) {
	// A fan-out of N RPCs with one timeout must share one wheel bucket
	// (one timer), and the bucket must be gone once every future expires.
	inst := newInstance(t, 2, 2)
	silentService(t, inst.Broker(1), "mute.svc")
	root := inst.Root()
	var futures []*Future
	for i := 0; i < 10; i++ {
		futures = append(futures, root.RPCWithTimeout(1, "mute.svc", nil, time.Second))
	}
	root.wheel.mu.Lock()
	buckets := len(root.wheel.buckets)
	root.wheel.mu.Unlock()
	if buckets != 1 {
		t.Fatalf("10 same-deadline RPCs use %d wheel buckets, want 1", buckets)
	}
	inst.sched.Advance(2 * time.Second)
	for i, f := range futures {
		if _, err := f.Result(); !errors.Is(err, ErrTimeout) {
			t.Fatalf("future %d: err=%v, want ErrTimeout", i, err)
		}
	}
	root.wheel.mu.Lock()
	buckets = len(root.wheel.buckets)
	root.wheel.mu.Unlock()
	if buckets != 0 {
		t.Fatalf("%d wheel buckets survive after all deadlines fired", buckets)
	}
	if n := root.PendingRPCs(); n != 0 {
		t.Fatalf("%d pending entries survive the deadline", n)
	}
}

func TestResolvedRPCDetachesFromWheel(t *testing.T) {
	// An in-memory reply arrives during delivery, so the deadline of an
	// answered RPC is never armed: no bucket, no timer handed to the
	// provider, nothing left in the scheduler heap.
	sched := simtime.NewScheduler()
	armed := 0
	inst, err := NewInstance(InstanceOptions{
		Size: 3, Fanout: 2, Scheduler: sched,
		TimersFor: func(int32) simtime.TimerProvider { return countingTimers{sched, &armed} },
	})
	if err != nil {
		t.Fatal(err)
	}
	root := inst.Root()
	pending := sched.Pending()
	for i := 0; i < 10; i++ {
		if f := root.RPCWithTimeout(2, "broker.ping", nil, time.Second); !f.Resolved() {
			t.Fatal("synchronous ping unresolved")
		}
	}
	if n := wheelBuckets(root); n != 0 {
		t.Fatalf("resolved RPCs left %d wheel buckets armed", n)
	}
	if armed != 0 {
		t.Fatalf("resolved RPCs armed %d deadline timers, want 0", armed)
	}
	if got := sched.Pending(); got != pending {
		t.Fatalf("scheduler holds %d timers, want %d", got, pending)
	}
	// Advancing past the original deadline must not double-resolve or
	// count a timeout.
	sched.Advance(2 * time.Second)
	if got := root.Stats().RPCTimeouts; got != 0 {
		t.Fatalf("answered RPC counted %d timeouts", got)
	}
}

func TestFutureThenRunsInlineWhenResolved(t *testing.T) {
	inst := newInstance(t, 2, 2)
	f := inst.Root().RPC(1, "broker.ping", nil)
	var got *msg.Message
	f.Then(func(resp *msg.Message) { got = resp })
	if got == nil {
		t.Fatal("Then on a resolved future did not run inline")
	}
}

func TestFutureThenReceivesTimeoutResponse(t *testing.T) {
	// Then callbacks must see every outcome as a non-nil response —
	// timeouts included — so module code handles failure via resp.Err().
	inst := newInstance(t, 2, 2)
	silentService(t, inst.Broker(1), "mute.svc")
	f := inst.Root().RPCWithTimeout(1, "mute.svc", nil, 100*time.Millisecond)
	var got *msg.Message
	f.Then(func(resp *msg.Message) { got = resp })
	inst.sched.Advance(time.Second)
	if got == nil {
		t.Fatal("Then callback never ran on timeout")
	}
	var me *msg.Error
	if err := got.Err(); !errors.As(err, &me) || me.Errnum != msg.ETIMEDOUT {
		t.Fatalf("callback response err=%v, want ETIMEDOUT", got.Err())
	}
}

func TestFutureCancelReclaimsAndDropsLateResponse(t *testing.T) {
	inst := newInstance(t, 2, 2)
	var saved *Request
	if err := inst.Broker(1).RegisterService("defer.svc", func(req *Request) {
		saved = req
	}); err != nil {
		t.Fatal(err)
	}
	f := inst.Root().RPC(1, "defer.svc", nil)
	f.Cancel()
	if _, err := f.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
	if n := inst.Root().PendingRPCs(); n != 0 {
		t.Fatalf("cancel left %d pending entries", n)
	}
	// The service finally responds: the stray must be dropped and the
	// future's canceled outcome must stand.
	if err := saved.Respond(map[string]int{"late": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("late response overwrote canceled future: err=%v", err)
	}
}

func TestSubscribeCompaction(t *testing.T) {
	// Unsubscribing must reclaim the slot (not leave a dead entry) and
	// must not invalidate other outstanding unsubscribe closures.
	inst := newInstance(t, 1, 2)
	root := inst.Root()
	var a, b, c int
	unsubA := root.Subscribe("x.*", func(*msg.Message) { a++ })
	unsubB := root.Subscribe("x.*", func(*msg.Message) { b++ })
	unsubC := root.Subscribe("x.*", func(*msg.Message) { c++ })
	if n := root.Subscriptions(); n != 3 {
		t.Fatalf("Subscriptions()=%d, want 3", n)
	}
	unsubB()
	if n := root.Subscriptions(); n != 2 {
		t.Fatalf("after one unsubscribe: %d live subscriptions, want 2", n)
	}
	_ = root.Publish("x.ev", nil)
	if a != 1 || b != 0 || c != 1 {
		t.Fatalf("deliveries a=%d b=%d c=%d, want 1/0/1", a, b, c)
	}
	// The closures made before the compaction still remove the right
	// entries, and double-unsubscribe is a no-op.
	unsubB()
	unsubC()
	unsubA()
	if n := root.Subscriptions(); n != 0 {
		t.Fatalf("after all unsubscribes: %d live subscriptions", n)
	}
	_ = root.Publish("x.ev", nil)
	if a != 1 || c != 1 {
		t.Fatalf("unsubscribed handlers fired: a=%d c=%d", a, c)
	}
}

func TestRouteEventContinuesPastFailedChild(t *testing.T) {
	// A failed child link must not starve its siblings of the event: the
	// flood keeps going, the failure is counted, and the joined error
	// names the child.
	inst := newInstance(t, 3, 2)
	root := inst.Root()
	root.AddChild(1, failingLink{err: fmt.Errorf("link down")})
	var reached int
	inst.Broker(2).Subscribe("flood.*", func(*msg.Message) { reached++ })
	before := root.Stats().RoutingErrors
	err := root.Publish("flood.ev", nil)
	if err == nil {
		t.Fatal("failed child send reported no error")
	}
	if reached != 1 {
		t.Fatal("sibling child starved by the failed link")
	}
	if got := root.Stats().RoutingErrors; got != before+1 {
		t.Fatalf("RoutingErrors %d → %d, want +1", before, got)
	}
}
