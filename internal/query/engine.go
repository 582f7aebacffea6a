package query

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/reduce"
)

// ModuleName is the query engine's registered module name.
const ModuleName = "power-query"

// ReduceTopic is the pushdown reduction topic: the plan flows down it,
// merged Partials flow back up.
const ReduceTopic = "power-query.reduce"

// Services. Eval and Plan live on rank 0 (the only rank that can root a
// whole-instance reduction). Fetch is the one per-rank read, served by
// the power monitor on every rank whether or not this engine is loaded:
// with a plan it ships the rank's plan-selected records verbatim (see
// ReadPlan) — the raw-fetch baseline, and the reference evaluator's
// input; without an expression it answers raw samples (ReadRaw).
const (
	EvalService  = "power-query.eval"
	PlanService  = "power-query.plan"
	FetchService = "power-monitor.collect"
)

// DefaultTimeout bounds one whole evaluation.
const DefaultTimeout = 10 * time.Second

// Config wires the engine module.
type Config struct {
	// Source returns the rank's node-local storage (the power monitor
	// module). Required.
	Source func(rank int32) Source
	// Timeout bounds one evaluation (default DefaultTimeout).
	Timeout time.Duration
	// Reduce tunes the tree reduction's failure handling.
	Reduce reduce.Config
}

// EvalRequest asks rank 0 to evaluate an expression. EndSec 0 means
// "now"; the window is [EndSec−range, EndSec], with StartSec (when set)
// clipping the window's beginning.
type EvalRequest struct {
	Expr     string  `json:"expr"`
	StartSec float64 `json:"start_sec,omitempty"`
	EndSec   float64 `json:"end_sec,omitempty"`
}

// Module is one rank's query engine instance. Load it on every broker
// after the power monitor.
type Module struct {
	cfg     Config
	ctx     *broker.Context
	src     Source
	reducer *reduce.Reducer[Partial]
}

// New creates a query engine module.
func New(cfg Config) *Module {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	return &Module{cfg: cfg}
}

// Name implements broker.Module.
func (m *Module) Name() string { return ModuleName }

// Shutdown implements broker.Module.
func (m *Module) Shutdown() error { return nil }

// Init implements broker.Module: registers the reduce combiner on every
// rank, the eval/plan services on rank 0.
func (m *Module) Init(ctx *broker.Context) error {
	m.ctx = ctx
	if m.cfg.Source == nil {
		return fmt.Errorf("query: rank %d has no Source configured", ctx.Rank())
	}
	m.src = m.cfg.Source(ctx.Rank())
	if m.src == nil {
		return fmt.Errorf("query: rank %d Source returned nil", ctx.Rank())
	}
	r, err := reduce.Register[Partial](ctx, ReduceTopic, reduce.Op[Partial]{
		Local: m.localPartial,
		Merge: MergePartial,
	}, m.cfg.Reduce)
	if err != nil {
		return err
	}
	m.reducer = r
	if ctx.Rank() == 0 {
		if err := ctx.RegisterService(EvalService, m.handleEval); err != nil {
			return err
		}
		if err := ctx.RegisterService(PlanService, m.handlePlan); err != nil {
			return err
		}
	}
	return nil
}

// localPartial is the reduce Local hook: plan, read, fold. body is the
// plan without job windows; own is this rank's job windows, present
// only for job-scoped queries and only on ranks that ran a job in the
// window. A rank excluded by the rank matcher, or with no job window
// in a job-scoped query, answers an empty complete partial without
// touching storage.
func (m *Module) localPartial(body, own json.RawMessage) (Partial, error) {
	var spec PlanSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return Partial{}, err
	}
	e, err := Parse(spec.Expr)
	if err != nil {
		return Partial{}, err
	}
	rank := m.ctx.Rank()
	if !rankSelected(e, rank) {
		return Partial{Complete: true}, nil
	}
	var jobs []JobWindow
	if e.NeedsJobs() {
		if len(own) > 0 {
			if err := json.Unmarshal(own, &jobs); err != nil {
				return Partial{}, err
			}
		}
		if len(jobs) == 0 {
			return Partial{Complete: true}, nil
		}
	}
	return foldSource(m.src, e, spec.StartSec, spec.EndSec, jobs, rank), nil
}

// handleEval evaluates an expression across the instance: resolve the
// plan once at the root, push it down the reduce tree, finalize the
// merged partial. The plan goes down without its job windows; each
// rank's windows travel as that rank's own reduce body. A dead subtree
// degrades the answer to Partial=true; only a malformed request fails.
func (m *Module) handleEval(req *broker.Request) {
	var body EvalRequest
	if err := req.Msg.Unmarshal(&body); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	e, spec, err := m.resolvePlan(body)
	if err != nil {
		m.failPlan(req, err)
		return
	}
	down := spec
	down.Jobs = nil
	bodies, err := rankWindows(e, spec, m.ctx.Size())
	if err != nil {
		_ = req.Fail(msg.EPROTO, err.Error())
		return
	}
	res, rerr := m.reducer.ReduceRanked(nil, down, bodies, m.cfg.Timeout)
	if rerr != nil {
		_ = req.Fail(msg.EPROTO, rerr.Error())
		return
	}
	_ = req.Respond(Finalize(e, spec, res.Aggregate, res.Ranks, res.Missing))
}

// rankWindows splits a job-scoped plan's windows by rank for the
// pushdown: each rank's windows after the job and rank matchers, in
// plan order and without their rank lists, encoded as that rank's
// reduce body. Per rank that is rankJobs with Ranks dropped. A rank
// with no window gets no entry, and a query that is not job-scoped
// gets no bodies at all.
func rankWindows(e *Expr, spec PlanSpec, size int32) (map[int32]json.RawMessage, error) {
	if !e.NeedsJobs() {
		return nil, nil
	}
	id, filtered := jobFilter(e)
	per := make([][]JobWindow, size)
	last := make([]int, size) // 1 + index of the window a rank got last
	for i, w := range spec.Jobs {
		if filtered && w.ID != id {
			continue
		}
		bare := JobWindow{ID: w.ID, StartSec: w.StartSec, EndSec: w.EndSec}
		for _, r := range w.Ranks {
			// A rank listed twice in one window still gets it once.
			if r < 0 || r >= size || last[r] == i+1 || !rankSelected(e, r) {
				continue
			}
			last[r] = i + 1
			per[r] = append(per[r], bare)
		}
	}
	bodies := make(map[int32]json.RawMessage)
	for r, wins := range per {
		if len(wins) == 0 {
			continue
		}
		raw, err := json.Marshal(wins)
		if err != nil {
			return nil, fmt.Errorf("query: encode job windows: %w", err)
		}
		bodies[int32(r)] = raw
	}
	return bodies, nil
}

// handlePlan resolves a plan without executing it, for clients that
// fetch and evaluate out-of-band (the experiment's baseline).
func (m *Module) handlePlan(req *broker.Request) {
	var body EvalRequest
	if err := req.Msg.Unmarshal(&body); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	_, spec, err := m.resolvePlan(body)
	if err != nil {
		m.failPlan(req, err)
		return
	}
	_ = req.Respond(spec)
}

func (m *Module) failPlan(req *broker.Request, err error) {
	if _, ok := err.(*ParseError); ok {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	if pe, ok := err.(*planError); ok {
		_ = req.Fail(pe.code, pe.Error())
		return
	}
	_ = req.Fail(msg.EPROTO, err.Error())
}

// planError carries a msg error code out of plan resolution.
type planError struct {
	code int
	msg  string
}

func (e *planError) Error() string { return e.msg }

// IsFinite reports whether v is neither NaN nor ±Inf: the test every
// window bound passes before any comparison, since NaN compares false.
func IsFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// jobRecord is the slice of the job manager's record the planner needs.
// State distinguishes a job that started at simulation time zero from
// one that never started (both report StartSec 0).
type jobRecord struct {
	ID       uint64    `json:"id"`
	State    job.State `json:"state"`
	Ranks    []int32   `json:"ranks"`
	StartSec float64   `json:"start_sec"`
	EndSec   float64   `json:"end_sec"`
}

// resolvePlan turns a request into the absolute plan: window resolution
// against the clock, and — for job-scoped expressions — one job-manager
// lookup whose windows every rank then applies identically.
func (m *Module) resolvePlan(body EvalRequest) (*Expr, PlanSpec, error) {
	e, err := Parse(body.Expr)
	if err != nil {
		return nil, PlanSpec{}, err
	}
	// NaN compares false everywhere, so it would sail through both the
	// "now" default and the empty-window check below and poison the
	// plan. The gateway rejects non-finite bounds too, but broker
	// clients reach this service directly.
	if !IsFinite(body.StartSec) || !IsFinite(body.EndSec) {
		return nil, PlanSpec{}, &planError{code: msg.EINVAL, msg: "query: start/end must be finite"}
	}
	end := body.EndSec
	if end <= 0 {
		end = m.ctx.Clock().Now().Seconds()
	}
	start := end - e.RangeSec
	if body.StartSec > start {
		start = body.StartSec
	}
	if start >= end {
		return nil, PlanSpec{}, &planError{code: msg.EINVAL, msg: fmt.Sprintf("query: empty window [%g, %g]", start, end)}
	}
	spec := PlanSpec{Expr: e.String(), StartSec: start, EndSec: end}
	if e.NeedsJobs() {
		resp, err := m.ctx.Broker().CallTimeout(msg.NodeAny, "job-manager.list", nil, m.cfg.Timeout)
		if err != nil {
			return nil, PlanSpec{}, &planError{code: msg.ENOSYS, msg: fmt.Sprintf("query: job lookup: %v", err)}
		}
		var list struct {
			Jobs []jobRecord `json:"jobs"`
		}
		if err := resp.Unmarshal(&list); err != nil {
			return nil, PlanSpec{}, &planError{code: msg.EPROTO, msg: fmt.Sprintf("query: job list: %v", err)}
		}
		spec.Jobs = jobWindows(list.Jobs, start, end)
	}
	return e, spec, nil
}

// jobWindows clips each started job's run to the window [start, end]:
// a running job is charged up to end, a finished one up to its EndSec.
// Jobs that never started, hold no ranks, or fall outside the window get
// no window. Only the RUN state is open-ended — an INACTIVE job whose
// end equals its start ran for no time and must not be charged with the
// rest of the window. Windows come back sorted by job id.
func jobWindows(recs []jobRecord, start, end float64) []JobWindow {
	var out []JobWindow
	for _, rec := range recs {
		if rec.State == job.StateSched || len(rec.Ranks) == 0 {
			continue // never started: nothing to attribute
		}
		ws, we := rec.StartSec, rec.EndSec
		if rec.State == job.StateRun {
			we = end
		}
		ws, we = max(ws, start), min(we, end)
		if ws >= we {
			continue
		}
		out = append(out, JobWindow{ID: rec.ID, Ranks: rec.Ranks, StartSec: ws, EndSec: we})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
