package broker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/simtime"
)

// countingTimers is the scheduler as a timer provider that counts the
// one-shot timers armed through it.
type countingTimers struct {
	*simtime.Scheduler
	armed *int
}

func (c countingTimers) AfterFunc(d time.Duration, fn simtime.TimerFunc) simtime.TimerHandle {
	*c.armed++
	return c.Scheduler.AfterFunc(d, fn)
}

func wheelBuckets(b *Broker) int {
	b.wheel.mu.Lock()
	defer b.wheel.mu.Unlock()
	return len(b.wheel.buckets)
}

func TestDeadlineUnansweredExpiresAtQuantizedInstant(t *testing.T) {
	// The deadline runs from the send even though it is armed after
	// delivery: 1.503 s + 250 ms quantizes up to the 1.76 s boundary.
	inst := newInstance(t, 3, 2)
	silentService(t, inst.Broker(2), "mute.svc")
	root := inst.Root()
	inst.sched.Advance(1503 * time.Millisecond)
	before := root.Stats()
	f := root.RPCWithTimeout(2, "mute.svc", nil, 250*time.Millisecond)
	var at simtime.Time
	var errnum int
	f.Then(func(m *msg.Message) { at, errnum = inst.sched.Now(), m.Errnum })
	want := simtime.Time(1760 * time.Millisecond)
	if dl := inst.sched.PendingDeadlines(); len(dl) != 1 || dl[0] != want {
		t.Fatalf("pending deadlines %v, want [%v]", dl, want)
	}
	inst.sched.Advance(time.Second)
	if at != want || errnum != msg.ETIMEDOUT {
		t.Fatalf("resolved at %v with errno %d, want %v with ETIMEDOUT", at, errnum, want)
	}
	after := root.Stats()
	if d := after.RPCTimeouts - before.RPCTimeouts; d != 1 {
		t.Fatalf("RPCTimeouts moved by %d, want 1", d)
	}
	if d := after.TagsReclaimed - before.TagsReclaimed; d != 1 {
		t.Fatalf("TagsReclaimed moved by %d, want 1", d)
	}
	if n := wheelBuckets(root); n != 0 {
		t.Fatalf("%d wheel buckets survive the deadline", n)
	}
}

func TestLiveWheelStressImmediateReplies(t *testing.T) {
	// Live replies land on transport goroutines and race the arming of
	// the deadline: whichever wins, no resolved future may be left in a
	// bucket and no answered RPC may time out.
	li := newLive(t, 3, 2, nil)
	root := li.Root()
	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rank := int32((w + i) % 3)
				if _, err := root.RPCWithTimeout(rank, "broker.ping", nil, 5*time.Second).Wait(10 * time.Second); err != nil {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d pings failed", n, workers*perWorker)
	}
	if n := wheelBuckets(root); n != 0 {
		t.Fatalf("answered RPCs left %d wheel buckets", n)
	}
	if got := root.Stats().RPCTimeouts; got != 0 {
		t.Fatalf("RPCTimeouts=%d, want 0", got)
	}
	if n := root.PendingRPCs(); n != 0 {
		t.Fatalf("%d pending entries after every reply", n)
	}
}

// rpcWithTimeoutLeafAllocs is the allocation count of one simulated
// RPCWithTimeout from the root to a leaf one hop down, answered with a
// small struct ack. It covers both encodes, the hops, the pending entry
// and the future, and no deadline timer and no done channel: nothing
// waits on a future a simulated RPC resolves before it returns.
const rpcWithTimeoutLeafAllocs = 8

func TestRPCWithTimeoutLeafAllocs(t *testing.T) {
	type ack struct {
		LimitW float64 `json:"limit_w"`
		Rank   int32   `json:"rank"`
	}
	inst := newInstance(t, 3, 2)
	leaf := inst.Broker(2)
	if err := leaf.RegisterService("ack.svc", func(req *Request) {
		_ = req.Respond(ack{LimitW: 250, Rank: leaf.Rank()})
	}); err != nil {
		t.Fatal(err)
	}
	body := struct {
		LimitW float64 `json:"limit_w"`
	}{250}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := inst.Root().RPCWithTimeout(2, "ack.svc", body, 5*time.Second).Result(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > rpcWithTimeoutLeafAllocs+1 {
		t.Fatalf("one leaf RPC allocates %.0f times, want at most %d", allocs, rpcWithTimeoutLeafAllocs+1)
	}
}
