package job

import (
	"errors"
	"testing"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/simtime"
)

type harness struct {
	inst  *broker.Instance
	sched *simtime.Scheduler
	jm    *Client
}

func newHarness(t *testing.T, size int) *harness {
	t.Helper()
	s := simtime.NewScheduler()
	inst, err := broker.NewInstance(broker.InstanceOptions{Size: size, Scheduler: s})
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]int32, size)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	if err := inst.Root().LoadModule(NewManager(ranks)); err != nil {
		t.Fatal(err)
	}
	return &harness{inst: inst, sched: s, jm: NewClient(inst.Root())}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{App: "gemm", Nodes: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{App: "", Nodes: 1},
		{App: "gemm", Nodes: 0},
		{App: "gemm", Nodes: 1, SizeFactor: -1},
		{App: "gemm", Nodes: 1, RepFactor: -2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestSubmitRunsImmediatelyWhenNodesFree(t *testing.T) {
	h := newHarness(t, 4)
	var started []Record
	h.inst.Root().Subscribe(EventStart, func(ev *msg.Message) {
		var rec Record
		if err := ev.Unmarshal(&rec); err != nil {
			t.Error(err)
			return
		}
		started = append(started, rec)
	})
	id, err := h.jm.Submit(Spec{App: "gemm", Nodes: 2, Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first job id=%d", id)
	}
	if len(started) != 1 {
		t.Fatalf("start events: %d", len(started))
	}
	if len(started[0].Ranks) != 2 || started[0].Ranks[0] != 0 || started[0].Ranks[1] != 1 {
		t.Fatalf("allocated ranks %v", started[0].Ranks)
	}
	rec, err := h.jm.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRun {
		t.Fatalf("state %s, want RUN", rec.State)
	}
	// Defaults filled in.
	if rec.Spec.SizeFactor != 1 || rec.Spec.RepFactor != 1 {
		t.Fatalf("scaling defaults: %+v", rec.Spec)
	}
}

func TestFCFSQueueingNoBackfill(t *testing.T) {
	h := newHarness(t, 4)
	a, _ := h.jm.Submit(Spec{App: "gemm", Nodes: 3})
	b, _ := h.jm.Submit(Spec{App: "qs", Nodes: 3}) // cannot fit
	c, _ := h.jm.Submit(Spec{App: "qs", Nodes: 1}) // would fit, but FCFS blocks it
	recB, _ := h.jm.Info(b)
	recC, _ := h.jm.Info(c)
	if recB.State != StateSched || recC.State != StateSched {
		t.Fatalf("queue states: b=%s c=%s, want SCHED (strict FCFS)", recB.State, recC.State)
	}
	// Finishing A frees nodes; B then C start in order.
	if _, err := h.jm.Finish(a); err != nil {
		t.Fatal(err)
	}
	recB, _ = h.jm.Info(b)
	recC, _ = h.jm.Info(c)
	if recB.State != StateRun {
		t.Fatalf("b state %s after a finished", recB.State)
	}
	if recC.State != StateRun { // 3 + 1 = 4 nodes, both fit
		t.Fatalf("c state %s after a finished", recC.State)
	}
}

func TestFinishRecordsTimes(t *testing.T) {
	h := newHarness(t, 2)
	h.sched.Advance(5e9) // T+5s
	id, _ := h.jm.Submit(Spec{App: "gemm", Nodes: 1})
	h.sched.Advance(10e9) // T+15s
	rec, err := h.jm.Finish(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SubmitSec != 5 || rec.StartSec != 5 || rec.EndSec != 15 {
		t.Fatalf("times: %+v", rec)
	}
	if rec.State != StateInactive {
		t.Fatalf("state %s", rec.State)
	}
}

func TestFinishErrors(t *testing.T) {
	h := newHarness(t, 2)
	if _, err := h.jm.Finish(99); err == nil {
		t.Fatal("finish of unknown job succeeded")
	}
	id, _ := h.jm.Submit(Spec{App: "gemm", Nodes: 1})
	if _, err := h.jm.Finish(id); err != nil {
		t.Fatal(err)
	}
	if _, err := h.jm.Finish(id); err == nil {
		t.Fatal("double finish succeeded")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	h := newHarness(t, 2)
	a, _ := h.jm.Submit(Spec{App: "gemm", Nodes: 2})
	b, _ := h.jm.Submit(Spec{App: "qs", Nodes: 2})
	if err := h.jm.Cancel(b); err != nil {
		t.Fatal(err)
	}
	rec, _ := h.jm.Info(b)
	if rec.State != StateInactive {
		t.Fatalf("cancelled state %s", rec.State)
	}
	// Running jobs cannot be cancelled through this path.
	if err := h.jm.Cancel(a); err == nil {
		t.Fatal("cancel of running job succeeded")
	}
}

func TestSubmitValidationErrors(t *testing.T) {
	h := newHarness(t, 2)
	if _, err := h.jm.Submit(Spec{App: "", Nodes: 1}); err == nil {
		t.Fatal("empty app accepted")
	}
	var me *msg.Error
	_, err := h.jm.Submit(Spec{App: "gemm", Nodes: 50})
	if !errors.As(err, &me) || me.Errnum != msg.EINVAL {
		t.Fatalf("oversized job err=%v", err)
	}
}

func TestListOrdered(t *testing.T) {
	h := newHarness(t, 8)
	for i := 0; i < 3; i++ {
		if _, err := h.jm.Submit(Spec{App: "gemm", Nodes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := h.jm.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != uint64(i+1) {
			t.Fatalf("list order: %+v", jobs)
		}
	}
}

func TestEventsVisibleOnLeafRanks(t *testing.T) {
	h := newHarness(t, 7)
	var leafSawStart, leafSawFinish bool
	h.inst.Broker(6).Subscribe("job.*", func(ev *msg.Message) {
		switch ev.Topic {
		case EventStart:
			leafSawStart = true
		case EventFinish:
			leafSawFinish = true
		}
	})
	id, _ := h.jm.Submit(Spec{App: "gemm", Nodes: 2})
	if _, err := h.jm.Finish(id); err != nil {
		t.Fatal(err)
	}
	if !leafSawStart || !leafSawFinish {
		t.Fatalf("leaf events: start=%v finish=%v", leafSawStart, leafSawFinish)
	}
}

func TestSubmitFromLeafRank(t *testing.T) {
	h := newHarness(t, 7)
	leaf := NewClient(h.inst.Broker(5))
	id, err := leaf.Submit(Spec{App: "gemm", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := leaf.Info(id)
	if err != nil || rec.State != StateRun {
		t.Fatalf("leaf-submitted job: %+v err=%v", rec, err)
	}
}
