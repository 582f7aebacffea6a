package broker

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/simtime"
)

func newInstance(t *testing.T, size, fanout int) *Instance {
	t.Helper()
	inst, err := NewInstance(InstanceOptions{
		Size:      size,
		Fanout:    fanout,
		Scheduler: simtime.NewScheduler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	bad := []Options{
		{Rank: 0, Size: 0, Fanout: 2, Clock: sched},
		{Rank: 5, Size: 4, Fanout: 2, Clock: sched},
		{Rank: -1, Size: 4, Fanout: 2, Clock: sched},
		{Rank: 0, Size: 4, Fanout: 0, Clock: sched},
		{Rank: 0, Size: 4, Fanout: 2, Clock: nil},
	}
	for i, opts := range bad {
		if _, err := New(opts); err == nil {
			t.Fatalf("case %d: bad options accepted", i)
		}
	}
}

func TestTreeTopologyHelpers(t *testing.T) {
	if ParentRank(0, 2) != -1 {
		t.Fatal("root should have no parent")
	}
	if ParentRank(1, 2) != 0 || ParentRank(2, 2) != 0 || ParentRank(3, 2) != 1 || ParentRank(4, 2) != 1 {
		t.Fatal("binary parent ranks wrong")
	}
	kids := ChildRanks(0, 2, 5)
	if len(kids) != 2 || kids[0] != 1 || kids[1] != 2 {
		t.Fatalf("ChildRanks(0)=%v", kids)
	}
	kids = ChildRanks(1, 2, 5)
	if len(kids) != 2 || kids[0] != 3 || kids[1] != 4 {
		t.Fatalf("ChildRanks(1)=%v", kids)
	}
	if got := ChildRanks(2, 2, 5); len(got) != 0 {
		t.Fatalf("leaf has children: %v", got)
	}
	if TreeDepth(0, 2) != 0 || TreeDepth(1, 2) != 1 || TreeDepth(4, 2) != 2 {
		t.Fatal("TreeDepth wrong")
	}
	// 16-ary: rank 0 has children 1..16.
	kids = ChildRanks(0, 16, 20)
	if len(kids) != 16 {
		t.Fatalf("16-ary root children: %d", len(kids))
	}
}

func TestBuiltinPingAcrossTree(t *testing.T) {
	inst := newInstance(t, 7, 2)
	// RPC from root to every rank, including leaves two hops down.
	for rank := int32(0); rank < 7; rank++ {
		resp, err := inst.Root().Call(rank, "broker.ping", nil)
		if err != nil {
			t.Fatalf("ping rank %d: %v", rank, err)
		}
		var body struct {
			Rank int32 `json:"rank"`
			Size int32 `json:"size"`
		}
		if err := resp.Unmarshal(&body); err != nil {
			t.Fatal(err)
		}
		if body.Rank != rank || body.Size != 7 {
			t.Fatalf("ping rank %d answered %+v", rank, body)
		}
	}
}

func TestRPCLeafToLeaf(t *testing.T) {
	// Leaf 5 pings leaf 6: the route crosses the root (5→2→0→... wait,
	// in a binary tree 5's parent is 2, 6's parent is 2) — and leaf 3 to
	// leaf 6 crosses rank 0.
	inst := newInstance(t, 7, 2)
	resp, err := inst.Broker(3).Call(6, "broker.ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Rank int32 `json:"rank"`
	}
	if err := resp.Unmarshal(&body); err != nil {
		t.Fatal(err)
	}
	if body.Rank != 6 {
		t.Fatalf("leaf-to-leaf answered rank %d", body.Rank)
	}
}

func TestRPCToUnknownRank(t *testing.T) {
	inst := newInstance(t, 4, 2)
	_, err := inst.Root().Call(99, "broker.ping", nil)
	if err == nil {
		t.Fatal("RPC to rank 99 of 4 succeeded")
	}
	var me *msg.Error
	if !errors.As(err, &me) || me.Errnum != msg.EHOSTUNREACH {
		t.Fatalf("err=%v, want EHOSTUNREACH", err)
	}
}

func TestNodeAnyRoutesUpstream(t *testing.T) {
	inst := newInstance(t, 7, 2)
	// Register a service only on rank 0; a NodeAny request from a leaf
	// should reach it.
	if err := inst.Root().RegisterService("cluster.query", func(req *Request) {
		_ = req.Respond(map[string]string{"who": "root"})
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := inst.Broker(6).Call(msg.NodeAny, "cluster.query", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := resp.Unmarshal(&body); err != nil || body["who"] != "root" {
		t.Fatalf("NodeAny response %v err=%v", body, err)
	}
}

func TestNodeAnyPrefersNearest(t *testing.T) {
	inst := newInstance(t, 7, 2)
	for _, rank := range []int32{0, 2} {
		rank := rank
		if err := inst.Broker(rank).RegisterService("tier.svc", func(req *Request) {
			_ = req.Respond(map[string]int32{"rank": rank})
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Rank 6's ancestors are 2 then 0: NodeAny should stop at 2.
	resp, err := inst.Broker(6).Call(msg.NodeAny, "tier.svc", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]int32
	if err := resp.Unmarshal(&body); err != nil {
		t.Fatal(err)
	}
	if body["rank"] != 2 {
		t.Fatalf("NodeAny answered by rank %d, want nearest (2)", body["rank"])
	}
}

func TestNodeAnyNoServiceReturnsENOSYS(t *testing.T) {
	inst := newInstance(t, 3, 2)
	_, err := inst.Broker(2).Call(msg.NodeAny, "nonexistent.svc", nil)
	var me *msg.Error
	if !errors.As(err, &me) || me.Errnum != msg.ENOSYS {
		t.Fatalf("err=%v, want ENOSYS", err)
	}
}

func TestServicePrefixDispatch(t *testing.T) {
	inst := newInstance(t, 2, 2)
	var topics []string
	if err := inst.Broker(1).RegisterService("power.monitor", func(req *Request) {
		topics = append(topics, req.Msg.Topic)
		_ = req.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	for _, topic := range []string{"power.monitor", "power.monitor.collect", "power.monitor.query.deep"} {
		if _, err := inst.Root().Call(1, topic, nil); err != nil {
			t.Fatalf("call %q: %v", topic, err)
		}
	}
	if len(topics) != 3 {
		t.Fatalf("handled topics: %v", topics)
	}
	// Longest prefix wins.
	var deep bool
	if err := inst.Broker(1).RegisterService("power.monitor.query", func(req *Request) {
		deep = true
		_ = req.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Root().Call(1, "power.monitor.query.x", nil); err != nil {
		t.Fatal(err)
	}
	if !deep {
		t.Fatal("longest-prefix service not preferred")
	}
}

func TestDuplicateServiceRejected(t *testing.T) {
	inst := newInstance(t, 1, 2)
	if err := inst.Root().RegisterService("dup.svc", func(*Request) {}); err != nil {
		t.Fatal(err)
	}
	if err := inst.Root().RegisterService("dup.svc", func(*Request) {}); !errors.Is(err, ErrDupService) {
		t.Fatalf("err=%v, want ErrDupService", err)
	}
}

func TestRequestToRankWithoutService(t *testing.T) {
	inst := newInstance(t, 2, 2)
	_, err := inst.Root().Call(1, "missing.svc", nil)
	var me *msg.Error
	if !errors.As(err, &me) || me.Errnum != msg.ENOSYS {
		t.Fatalf("err=%v, want ENOSYS", err)
	}
}

func TestEventBroadcastReachesAllRanks(t *testing.T) {
	inst := newInstance(t, 7, 2)
	got := make(map[int32]uint64)
	for rank := int32(0); rank < 7; rank++ {
		rank := rank
		inst.Broker(rank).Subscribe("job.*", func(ev *msg.Message) {
			got[rank] = ev.Seq
		})
	}
	// Publish from a leaf: must funnel to root, get sequenced, and reach
	// every rank including the publisher.
	if err := inst.Broker(5).Publish("job.start", map[string]int{"id": 1}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("event reached %d of 7 ranks: %v", len(got), got)
	}
	for rank, seq := range got {
		if seq != 1 {
			t.Fatalf("rank %d saw seq %d, want 1", rank, seq)
		}
	}
	// Second event increments the sequence.
	if err := inst.Root().Publish("job.finish", nil); err != nil {
		t.Fatal(err)
	}
	if got[6] != 2 {
		t.Fatalf("second event seq %d, want 2", got[6])
	}
}

func TestSubscriptionPatternFiltering(t *testing.T) {
	inst := newInstance(t, 2, 2)
	var jobEvents, allEvents int
	inst.Broker(1).Subscribe("job.start", func(*msg.Message) { jobEvents++ })
	inst.Broker(1).Subscribe("job.*", func(*msg.Message) { allEvents++ })
	_ = inst.Root().Publish("job.start", nil)
	_ = inst.Root().Publish("job.finish", nil)
	_ = inst.Root().Publish("power.sample", nil)
	if jobEvents != 1 {
		t.Fatalf("exact subscription fired %d times, want 1", jobEvents)
	}
	if allEvents != 2 {
		t.Fatalf("glob subscription fired %d times, want 2", allEvents)
	}
}

func TestUnsubscribe(t *testing.T) {
	inst := newInstance(t, 1, 2)
	count := 0
	unsub := inst.Root().Subscribe("x.*", func(*msg.Message) { count++ })
	_ = inst.Root().Publish("x.a", nil)
	unsub()
	_ = inst.Root().Publish("x.b", nil)
	if count != 1 {
		t.Fatalf("handler fired %d times after unsubscribe, want 1", count)
	}
}

func TestModuleLifecycle(t *testing.T) {
	inst := newInstance(t, 3, 2)
	m := &testModule{name: "test-mod"}
	if err := inst.Broker(1).LoadModule(m); err != nil {
		t.Fatal(err)
	}
	if !m.inited {
		t.Fatal("Init not called")
	}
	if mods := inst.Broker(1).Modules(); len(mods) != 1 || mods[0] != "test-mod" {
		t.Fatalf("Modules()=%v", mods)
	}
	// The module's service answers.
	if _, err := inst.Root().Call(1, "test-mod.ping", nil); err != nil {
		t.Fatal(err)
	}
	// Duplicate load rejected.
	if err := inst.Broker(1).LoadModule(&testModule{name: "test-mod"}); !errors.Is(err, ErrDupModule) {
		t.Fatalf("dup load err=%v", err)
	}
	// Unload: shutdown runs, service and timer disappear.
	if err := inst.Broker(1).UnloadModule("test-mod"); err != nil {
		t.Fatal(err)
	}
	if !m.shutdown {
		t.Fatal("Shutdown not called")
	}
	if _, err := inst.Root().Call(1, "test-mod.ping", nil); err == nil {
		t.Fatal("service survived unload")
	}
	ticksAtUnload := m.ticks
	inst.sched.Advance(time.Minute)
	if m.ticks != ticksAtUnload {
		t.Fatal("module timer survived unload")
	}
	if err := inst.Broker(1).UnloadModule("test-mod"); err == nil {
		t.Fatal("double unload succeeded")
	}
}

func TestModuleInitFailureRollsBack(t *testing.T) {
	inst := newInstance(t, 1, 2)
	m := &testModule{name: "failing", failInit: true}
	if err := inst.Root().LoadModule(m); err == nil {
		t.Fatal("failing Init accepted")
	}
	// The service registered before the failure must be gone.
	if _, err := inst.Root().Call(0, "failing.ping", nil); err == nil {
		t.Fatal("service survived failed init")
	}
}

type testModule struct {
	name     string
	failInit bool
	inited   bool
	shutdown bool
	ticks    int
}

func (m *testModule) Name() string { return m.name }

func (m *testModule) Init(ctx *Context) error {
	if err := ctx.RegisterService(m.name+".ping", func(req *Request) {
		_ = req.Respond(map[string]int32{"rank": ctx.Rank()})
	}); err != nil {
		return err
	}
	if m.failInit {
		return fmt.Errorf("synthetic init failure")
	}
	if _, err := ctx.Every(time.Second, func(simtime.Time) { m.ticks++ }); err != nil {
		return err
	}
	m.inited = true
	return nil
}

func (m *testModule) Shutdown() error {
	m.shutdown = true
	return nil
}

func TestModuleTimersTick(t *testing.T) {
	inst := newInstance(t, 1, 2)
	m := &testModule{name: "ticker"}
	if err := inst.Root().LoadModule(m); err != nil {
		t.Fatal(err)
	}
	inst.sched.Advance(10 * time.Second)
	if m.ticks != 10 {
		t.Fatalf("module ticked %d times in 10s, want 10", m.ticks)
	}
}

func TestLoadModuleAll(t *testing.T) {
	inst := newInstance(t, 5, 2)
	var mods []*testModule
	err := inst.LoadModuleAll(func(rank int32) Module {
		m := &testModule{name: "agent"}
		mods = append(mods, m)
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := int32(0); rank < 5; rank++ {
		resp, err := inst.Root().Call(rank, "agent.ping", nil)
		if err != nil {
			t.Fatalf("rank %d agent: %v", rank, err)
		}
		var body map[string]int32
		_ = resp.Unmarshal(&body)
		if body["rank"] != rank {
			t.Fatalf("agent on rank %d answered %d", rank, body["rank"])
		}
	}
	if err := inst.UnloadModuleAll("agent"); err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if !m.shutdown {
			t.Fatal("an agent was not shut down")
		}
	}
}

func TestStatsCounters(t *testing.T) {
	inst := newInstance(t, 3, 2)
	before := inst.Root().Stats()
	if _, err := inst.Root().Call(2, "broker.ping", nil); err != nil {
		t.Fatal(err)
	}
	after := inst.Root().Stats()
	if after.RPCsIssued != before.RPCsIssued+1 {
		t.Fatalf("RPCsIssued %d → %d", before.RPCsIssued, after.RPCsIssued)
	}
	// broker.stats service responds with the struct.
	resp, err := inst.Root().Call(0, "broker.stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	var s Stats
	if err := resp.Unmarshal(&s); err != nil {
		t.Fatal(err)
	}
	if s.RequestsHandled == 0 {
		t.Fatal("stats report zero handled requests")
	}
}

func TestBrokerServicesListing(t *testing.T) {
	inst := newInstance(t, 1, 2)
	resp, err := inst.Root().Call(0, "broker.services", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Services []string `json:"services"`
	}
	if err := resp.Unmarshal(&body); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"broker.ping": true, "broker.stats": true, "broker.services": true}
	found := 0
	for _, s := range body.Services {
		if want[s] {
			found++
		}
	}
	if found != 3 {
		t.Fatalf("builtin services missing: %v", body.Services)
	}
}

func TestWideFanoutInstance(t *testing.T) {
	// 33 brokers with fanout 16: root has 16 children; rank 17+ hang off
	// rank 1. Exercises multi-level routing at high arity.
	inst := newInstance(t, 33, 16)
	for _, rank := range []int32{0, 1, 16, 17, 32} {
		resp, err := inst.Root().Call(rank, "broker.ping", nil)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		var body map[string]any
		_ = resp.Unmarshal(&body)
	}
}

// Property: in a random tree (size, fanout), a request from any source
// rank to any destination rank routes there and the response routes back.
func TestQuickRoutingAnyPair(t *testing.T) {
	f := func(sizeRaw, fanoutRaw uint8, fromRaw, toRaw uint8) bool {
		size := int(sizeRaw%30) + 2
		fanout := int(fanoutRaw%8) + 1
		from := int32(int(fromRaw) % size)
		to := int32(int(toRaw) % size)
		inst, err := NewInstance(InstanceOptions{
			Size: size, Fanout: fanout, Scheduler: simtime.NewScheduler(),
		})
		if err != nil {
			return false
		}
		resp, err := inst.Broker(from).Call(to, "broker.ping", nil)
		if err != nil {
			return false
		}
		var body struct {
			Rank int32 `json:"rank"`
		}
		if err := resp.Unmarshal(&body); err != nil {
			return false
		}
		return body.Rank == to
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: events published from any rank reach every rank exactly once.
func TestQuickEventReachesAllOnce(t *testing.T) {
	f := func(sizeRaw, fanoutRaw, pubRaw uint8) bool {
		size := int(sizeRaw%20) + 2
		fanout := int(fanoutRaw%5) + 1
		pub := int32(int(pubRaw) % size)
		inst, err := NewInstance(InstanceOptions{
			Size: size, Fanout: fanout, Scheduler: simtime.NewScheduler(),
		})
		if err != nil {
			return false
		}
		counts := make([]int, size)
		for rank := int32(0); rank < int32(size); rank++ {
			rank := rank
			inst.Broker(rank).Subscribe("q.ev", func(*msg.Message) { counts[rank]++ })
		}
		if err := inst.Broker(pub).Publish("q.ev", nil); err != nil {
			return false
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseWithoutPendingIsDropped(t *testing.T) {
	// A stray response (unknown matchtag) must be ignored, not crash.
	inst := newInstance(t, 2, 2)
	stray := &msg.Message{Type: msg.TypeResponse, Topic: "x.y", Matchtag: 9999, NodeID: 0, Sender: 1}
	inst.Root().Deliver(stray) // no panic, no pending entry
	// Response addressed to an unreachable rank bumps the error counter.
	unroutable := &msg.Message{Type: msg.TypeResponse, Topic: "x.y", Matchtag: 1, NodeID: 99, Sender: 0}
	before := inst.Root().Stats().RoutingErrors
	inst.Root().Deliver(unroutable)
	if inst.Root().Stats().RoutingErrors != before+1 {
		t.Fatal("unroutable response not counted")
	}
}

func TestInvalidMessageTypeCounted(t *testing.T) {
	inst := newInstance(t, 1, 2)
	before := inst.Root().Stats().RoutingErrors
	inst.Root().Deliver(&msg.Message{Type: 0, Topic: "x"})
	if inst.Root().Stats().RoutingErrors != before+1 {
		t.Fatal("invalid message type not counted")
	}
}

func TestBuiltinReplyBytes(t *testing.T) {
	// Payloads captured when these replies were sorted-key maps; the
	// typed replies must encode to the same bytes.
	inst := newInstance(t, 3, 2)
	one := newInstance(t, 1, 2)
	call := func(b *Broker, rank int32, topic string) string {
		t.Helper()
		resp, err := b.Call(rank, topic, nil)
		if err != nil {
			t.Fatal(err)
		}
		return string(resp.Payload)
	}
	if got, want := call(inst.Root(), 2, "broker.ping"), `{"rank":2,"size":3,"time":0}`; got != want {
		t.Fatalf("ping payload %s, want %s", got, want)
	}
	inst.sched.Advance(1500 * time.Millisecond)
	if got, want := call(inst.Root(), 1, "broker.ping"), `{"rank":1,"size":3,"time":1.5}`; got != want {
		t.Fatalf("ping payload %s, want %s", got, want)
	}
	want := `{"services":["broker.health","broker.ping","broker.services","broker.stats"]}`
	if got := call(one.Root(), 0, "broker.services"); got != want {
		t.Fatalf("services payload %s, want %s", got, want)
	}
}
