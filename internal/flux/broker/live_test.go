package broker

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/simtime"
)

func newLive(t *testing.T, size, fanout int, local func(rank int32) any) *LiveInstance {
	t.Helper()
	li, err := NewLiveInstance(InstanceOptions{Size: size, Fanout: fanout, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(li.Close)
	return li
}

func TestLivePingAllRanks(t *testing.T) {
	li := newLive(t, 7, 2, nil)
	for rank := int32(0); rank < 7; rank++ {
		resp, err := li.Root().CallTimeout(rank, "broker.ping", nil, 5*time.Second)
		if err != nil {
			t.Fatalf("ping rank %d over TCP: %v", rank, err)
		}
		var body struct {
			Rank int32 `json:"rank"`
		}
		if err := resp.Unmarshal(&body); err != nil {
			t.Fatal(err)
		}
		if body.Rank != rank {
			t.Fatalf("rank %d answered as %d", rank, body.Rank)
		}
	}
}

func TestLiveLeafToLeafRPC(t *testing.T) {
	li := newLive(t, 7, 2, nil)
	resp, err := li.Broker(3).CallTimeout(6, "broker.ping", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Rank int32 `json:"rank"`
	}
	_ = resp.Unmarshal(&body)
	if body.Rank != 6 {
		t.Fatalf("leaf-to-leaf over TCP answered %d", body.Rank)
	}
}

func TestLiveEventBroadcast(t *testing.T) {
	li := newLive(t, 5, 2, nil)
	var wg sync.WaitGroup
	var count atomic.Int32
	wg.Add(5)
	for rank := int32(0); rank < 5; rank++ {
		done := false
		rankCopy := rank
		li.Broker(rank).Subscribe("live.*", func(ev *msg.Message) {
			if !done {
				done = true
				count.Add(1)
				wg.Done()
			}
			_ = rankCopy
		})
	}
	if err := li.Broker(4).Publish("live.test", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-time.After(5 * time.Second):
		t.Fatalf("event reached only %d of 5 ranks", count.Load())
	}
}

// liveModule samples on a wall timer and serves its count over RPC — a
// miniature of the power monitor's live-mode shape.
type liveModule struct {
	mu      sync.Mutex
	samples int
}

func (m *liveModule) Name() string    { return "live-agent" }
func (m *liveModule) Shutdown() error { return nil }
func (m *liveModule) Init(ctx *Context) error {
	if _, err := ctx.Every(10*time.Millisecond, func(simtime.Time) {
		m.mu.Lock()
		m.samples++
		m.mu.Unlock()
	}); err != nil {
		return err
	}
	return ctx.RegisterService("live-agent.count", func(req *Request) {
		m.mu.Lock()
		n := m.samples
		m.mu.Unlock()
		_ = req.Respond(map[string]int{"samples": n})
	})
}

func TestLiveModuleWallTimers(t *testing.T) {
	li := newLive(t, 3, 2, nil)
	if err := li.LoadModuleAll(func(rank int32) Module { return &liveModule{} }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	for rank := int32(0); rank < 3; rank++ {
		resp, err := li.Root().CallTimeout(rank, "live-agent.count", nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]int
		if err := resp.Unmarshal(&body); err != nil {
			t.Fatal(err)
		}
		if body["samples"] < 5 {
			t.Fatalf("rank %d sampled %d times in 150ms at 10ms period", rank, body["samples"])
		}
	}
	// Unload stops the wall timers.
	if err := li.Broker(1).UnloadModule("live-agent"); err != nil {
		t.Fatal(err)
	}
}

// TestLiveCallBlocksForResponse is the tentpole regression test: plain
// Broker.Call over live TCP links must block for the in-flight response
// instead of failing with ErrNoSyncReply, even when the responder is
// slow. Before the futures rework, Call only worked over synchronous
// in-memory links.
func TestLiveCallBlocksForResponse(t *testing.T) {
	li := newLive(t, 3, 2, nil)
	if err := li.Broker(2).RegisterService("slow.svc", func(req *Request) {
		time.Sleep(50 * time.Millisecond)
		_ = req.Respond(map[string]string{"who": "slow"})
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := li.Root().Call(2, "slow.svc", nil)
	if err != nil {
		t.Fatalf("Call over live TCP: %v", err)
	}
	var body map[string]string
	if err := resp.Unmarshal(&body); err != nil || body["who"] != "slow" {
		t.Fatalf("resp %v err=%v", body, err)
	}
	if n := li.Root().PendingRPCs(); n != 0 {
		t.Fatalf("%d pending entries after the call completed", n)
	}
}

func TestLiveRPCTimeoutReclaimsMatchtag(t *testing.T) {
	li := newLive(t, 2, 2, nil)
	if err := li.Broker(1).RegisterService("blackhole.svc", func(req *Request) {}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	f := li.Root().RPCWithTimeout(1, "blackhole.svc", nil, 100*time.Millisecond)
	resp, err := f.Wait(5 * time.Second)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err=%v, want ErrTimeout", err)
	}
	if resp == nil || resp.Errnum != msg.ETIMEDOUT {
		t.Fatalf("timeout response %+v, want ETIMEDOUT", resp)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("100ms deadline took %v to fire", elapsed)
	}
	if n := li.Root().PendingRPCs(); n != 0 {
		t.Fatalf("timed-out RPC left %d pending entries", n)
	}
	if got := li.Root().Stats().RPCTimeouts; got != 1 {
		t.Fatalf("RPCTimeouts=%d, want 1", got)
	}
}

func TestLiveConcurrentFanoutBoundedByOneTimeout(t *testing.T) {
	// Futures issued together expire at their own absolute deadlines:
	// sequentially waiting on N dead peers costs ~one timeout in total,
	// not N timeouts back to back.
	li := newLive(t, 5, 2, nil)
	for rank := int32(1); rank < 5; rank++ {
		if err := li.Broker(rank).RegisterService("blackhole.svc", func(req *Request) {}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	var futures []*Future
	for rank := int32(1); rank < 5; rank++ {
		futures = append(futures, li.Root().RPCWithTimeout(rank, "blackhole.svc", nil, 200*time.Millisecond))
	}
	for _, f := range futures {
		if _, err := f.Wait(5 * time.Second); !errors.Is(err, ErrTimeout) {
			t.Fatalf("err=%v, want ErrTimeout", err)
		}
	}
	// 4 × 200ms serially would be 800ms; concurrent deadlines finish in
	// ~200ms. Allow generous slack for slow CI machines.
	if elapsed := time.Since(start); elapsed > 600*time.Millisecond {
		t.Fatalf("4-way fan-out to dead peers took %v, want ~200ms", elapsed)
	}
}

func TestLiveCallWaitTimeout(t *testing.T) {
	li := newLive(t, 2, 2, nil)
	// A service that never responds.
	if err := li.Broker(1).RegisterService("blackhole.svc", func(req *Request) {}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := li.Root().CallTimeout(1, "blackhole.svc", nil, 100*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestLiveWideFanout(t *testing.T) {
	li := newLive(t, 17, 16, nil)
	for _, rank := range []int32{1, 8, 16} {
		if _, err := li.Root().CallTimeout(rank, "broker.ping", nil, 5*time.Second); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestWallProvider(t *testing.T) {
	w := simtime.NewWall()
	defer w.Close()
	if w.Now() < 0 {
		t.Fatal("wall time negative")
	}
	var fired atomic.Int32
	h := w.Every(5*time.Millisecond, func(simtime.Time) { fired.Add(1) })
	time.Sleep(60 * time.Millisecond)
	h.Stop()
	n := fired.Load()
	if n < 3 {
		t.Fatalf("wall ticker fired %d times in 60ms", n)
	}
	time.Sleep(30 * time.Millisecond)
	if fired.Load() > n+1 {
		t.Fatal("ticker kept firing after Stop")
	}
	// One-shot.
	var once atomic.Int32
	w.AfterFunc(5*time.Millisecond, func(simtime.Time) { once.Add(1) })
	time.Sleep(40 * time.Millisecond)
	if once.Load() != 1 {
		t.Fatalf("AfterFunc fired %d times", once.Load())
	}
	// Stopped before firing.
	var never atomic.Int32
	h2 := w.AfterFunc(50*time.Millisecond, func(simtime.Time) { never.Add(1) })
	h2.Stop()
	time.Sleep(80 * time.Millisecond)
	if never.Load() != 0 {
		t.Fatal("stopped AfterFunc fired")
	}
	// Close stops everything; new timers after Close never fire.
	var afterClose atomic.Int32
	w.Close()
	w.Every(time.Millisecond, func(simtime.Time) { afterClose.Add(1) })
	time.Sleep(20 * time.Millisecond)
	if afterClose.Load() != 0 {
		t.Fatal("timer created after Close fired")
	}
}

// TestLiveGatherWaitsOnceForHungRanks: Gather issues every request
// before waiting on any, so three ranks that never answer cost one
// timeout together, not one each; every rank's outcome reaches each in
// the order of ranks, the hung ones as errors.
func TestLiveGatherWaitsOnceForHungRanks(t *testing.T) {
	li := newLive(t, 5, 2, nil)
	for _, r := range []int32{1, 3, 4} {
		if err := li.Broker(r).RegisterService("test.hang", func(*Request) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := li.Broker(2).RegisterService("test.hang", func(req *Request) { _ = req.Respond(nil) }); err != nil {
		t.Fatal(err)
	}
	const timeout = 500 * time.Millisecond
	var order []int32
	var answered []int32
	start := time.Now()
	li.Root().Gather([]int32{4, 2, 3, 1}, "test.hang", nil, timeout, func(rank int32, _ *msg.Message, err error) {
		order = append(order, rank)
		if err == nil {
			answered = append(answered, rank)
		}
	})
	elapsed := time.Since(start)
	if len(order) != 4 || order[0] != 4 || order[1] != 2 || order[2] != 3 || order[3] != 1 {
		t.Fatalf("outcomes in order %v, want [4 2 3 1]", order)
	}
	if len(answered) != 1 || answered[0] != 2 {
		t.Fatalf("answered %v, want only rank 2", answered)
	}
	if elapsed >= 2*timeout {
		t.Fatalf("three hung ranks took %v at a %v timeout: the waits ran back to back", elapsed, timeout)
	}
}
