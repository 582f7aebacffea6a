package broker

import (
	"testing"
	"time"
	"unsafe"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/simtime"
)

// healInstance builds a sim instance with healing enabled at a fast
// heartbeat for test brevity.
func healInstance(t *testing.T, size int) (*Instance, *simtime.Scheduler) {
	t.Helper()
	sched := simtime.NewScheduler()
	inst, err := NewInstance(InstanceOptions{
		Size:      size,
		Scheduler: sched,
		Heal:      &HealConfig{Interval: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst, sched
}

// killBroker makes a broker permanently dead at the transport level:
// its heal timer stops, its dialer is removed, and every link touching
// it is closed (closing either end of a memLink fails both directions).
func killBroker(b *Broker) {
	if b.heal != nil {
		if b.heal.timer != nil {
			b.heal.timer.Stop()
		}
		b.heal.mu.Lock()
		b.heal.dialer = nil
		b.heal.mu.Unlock()
	}
	b.mu.Lock()
	parent := b.parent
	links := make([]transport.Link, 0, len(b.children))
	for _, l := range b.children {
		links = append(links, l)
	}
	b.mu.Unlock()
	if parent != nil {
		_ = parent.Close()
	}
	for _, l := range links {
		_ = l.Close()
	}
}

func TestHealOrphansReattachToGrandparent(t *testing.T) {
	inst, sched := healInstance(t, 7) // fanout 2: 1 has children 3,4
	root := inst.Root()

	var reattached []ReattachEvent
	root.Subscribe(TopicReattach, func(ev *msg.Message) {
		var re ReattachEvent
		if err := ev.Unmarshal(&re); err == nil {
			reattached = append(reattached, re)
		}
	})

	sched.Run(simtime.Time(1 * time.Second)) // steady state, heartbeats flowing
	killBroker(inst.Broker(1))
	sched.Run(simtime.Time(4 * time.Second))

	for _, orphan := range []int32{3, 4} {
		if got := inst.Broker(orphan).CurrentParent(); got != 0 {
			t.Errorf("rank %d parent = %d, want 0", orphan, got)
		}
	}
	// Root's subtree excludes only the dead rank 1.
	if n := root.SubtreeCount(); n != 6 {
		t.Errorf("root subtree count = %d, want 6", n)
	}
	// Routing works across the healed topology, including from a rank in
	// an untouched subtree to a moved one.
	for _, from := range []int32{0, 5} {
		resp, err := inst.Broker(from).Call(3, "broker.ping", nil)
		if err != nil || resp.Errnum != 0 {
			t.Fatalf("ping 3 from %d after heal: %v %+v", from, err, resp)
		}
	}
	// The dead rank is reported unreachable, not wedged.
	if resp, _ := root.Call(1, "broker.ping", nil); resp == nil || resp.Errnum != msg.EHOSTUNREACH {
		t.Errorf("ping dead rank 1: want EHOSTUNREACH, got %+v", resp)
	}
	if len(reattached) < 2 {
		t.Fatalf("reattach events = %+v, want moves for ranks 3 and 4", reattached)
	}
	for _, re := range reattached {
		if re.NewParent != 0 || re.OldParent != 1 || re.Rejoin {
			t.Errorf("unexpected reattach event %+v", re)
		}
	}
	if inst.Broker(3).Reattaches() == 0 {
		t.Error("rank 3 recorded no reattach")
	}
}

func TestHealDisabledKeepsFormulaTopology(t *testing.T) {
	sched := simtime.NewScheduler()
	inst, err := NewInstance(InstanceOptions{Size: 15, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	sched.Run(simtime.Time(5 * time.Second))
	if sched.Pending() != 0 {
		t.Fatalf("heal-off instance armed %d timers", sched.Pending())
	}
	b := inst.Broker(1)
	if got := b.CurrentParent(); got != 0 {
		t.Errorf("CurrentParent = %d", got)
	}
	wantKids := ChildRanks(1, b.Fanout(), b.Size())
	kids := b.Children()
	if len(kids) != len(wantKids) || kids[0] != wantKids[0] || kids[1] != wantKids[1] {
		t.Errorf("Children = %v, want %v", kids, wantKids)
	}
	if got := b.SubtreeCount(); got != SubtreeSize(1, b.Fanout(), b.Size()) {
		t.Errorf("SubtreeCount = %d", got)
	}
	if got := b.ChildSubtreeCount(3); got != SubtreeSize(3, b.Fanout(), b.Size()) {
		t.Errorf("ChildSubtreeCount(3) = %d", got)
	}
	if c, ok := b.OwningChild(9); !ok || c != 4 {
		t.Errorf("OwningChild(9) = %d,%v, want 4,true", c, ok)
	}
	if _, ok := b.OwningChild(2); ok {
		t.Error("OwningChild(2) should be false: 2 is not under 1")
	}
}

func TestRouteEventDedupe(t *testing.T) {
	sched := simtime.NewScheduler()
	b, err := New(Options{Rank: 1, Size: 3, Fanout: 2, Clock: sched, Timers: sched})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	b.Subscribe("dup.test", func(ev *msg.Message) { got++ })

	ev, err := msg.NewEvent("dup.test", 0, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The same sequenced event arriving twice — once via the old parent,
	// once via the new — must be delivered to subscribers exactly once.
	b.Deliver(ev)
	b.Deliver(ev.Copy())
	if got != 1 {
		t.Fatalf("duplicate sequenced event delivered %d times, want 1", got)
	}
	// A different seq passes.
	ev2, _ := msg.NewEvent("dup.test", 0, 43, nil)
	b.Deliver(ev2)
	if got != 2 {
		t.Fatalf("fresh event suppressed: delivered %d, want 2", got)
	}
}

func TestRouteEventDedupeWindowSlides(t *testing.T) {
	sched := simtime.NewScheduler()
	b, err := New(Options{Rank: 1, Size: 3, Fanout: 2, Clock: sched, Timers: sched})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	b.Subscribe("dup.test", func(ev *msg.Message) { got++ })
	for seq := uint64(1); seq <= evDedupeWindow+10; seq++ {
		ev, _ := msg.NewEvent("dup.test", 0, seq, nil)
		b.Deliver(ev)
	}
	if got != evDedupeWindow+10 {
		t.Fatalf("delivered %d, want %d", got, evDedupeWindow+10)
	}
	// The window is a fixed-size value, so it cannot grow: a high-water
	// mark plus one bit per seq.
	if size := unsafe.Sizeof(b.evWindow); size != 8+evDedupeWindow/8 {
		t.Fatalf("dedupe window is %d bytes, want %d", size, 8+evDedupeWindow/8)
	}
	// An ancient seq that slid out of the window is treated as fresh —
	// bounded memory is the contract, not perfect dedupe.
	ev, _ := msg.NewEvent("dup.test", 0, 1, nil)
	b.Deliver(ev)
	if got != evDedupeWindow+11 {
		t.Fatalf("slid-out seq dropped; delivered %d", got)
	}
}

func TestHealHopLimitBoundsLoops(t *testing.T) {
	inst, sched := healInstance(t, 3)
	sched.Run(simtime.Time(500 * time.Millisecond))
	b := inst.Broker(1)
	req, err := msg.NewRequest("no.such.service", 2, 1, 9999, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Hops = maxHops
	// Inject a request that already used its hop budget: it must be
	// refused with EHOSTUNREACH rather than forwarded.
	before := b.Stats().RoutingErrors
	b.deliverRequest(req)
	if b.Stats().RoutingErrors != before+1 {
		t.Fatal("hop-exhausted request was not counted as a routing error")
	}
}
