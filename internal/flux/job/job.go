// Package job implements the job manager: jobspecs, job state tracking,
// policy-driven scheduling onto broker ranks, and the job.start /
// job.finish events the power modules key off.
//
// The paper's framework is deliberately job-centric: "anything that can be
// launched under a Flux job" — MPI codes, Charm++, Python workflows — gets
// power telemetry and management (§I). Accordingly, a Spec here names an
// application *model* (resolved by the cluster engine) plus its node count
// and scaling knobs; the job manager neither knows nor cares what the
// application is.
//
// Dispatch is delegated to a sched.Policy behind a sched.Dispatcher: FCFS
// is the default (a conventional resource manager), the power-aware policy
// schedules against predicted per-job draw under a cluster power budget,
// and the dispatcher centrally guarantees no policy ever admits a job set
// whose predicted draw exceeds that budget. Finished jobs feed their
// telemetry-measured average power back to the predictor via the power
// monitor's in-network aggregate query.
package job

import (
	"fmt"
	"sort"
	"sync"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/hw"
	"fluxpower/internal/sched"
)

// ModuleName is the job manager's registered module/service name.
const ModuleName = "job-manager"

// monitorTopic is the power monitor's query service. Named here rather
// than imported from core/powermon to keep the dependency one-way (the
// monitor subscribes to this package's events); absence of the monitor
// module simply fails the observation RPC, which is tolerated.
const monitorTopic = "power-monitor.query"

// Event topics published by the manager.
const (
	EventStart  = "job.start"
	EventFinish = "job.finish"
	EventSubmit = "job.submit"
)

// State is a job's lifecycle state (a condensed version of Flux's
// DEPEND→PRIORITY→SCHED→RUN→CLEANUP→INACTIVE).
type State string

// Job states.
const (
	StateSched    State = "SCHED"    // queued, waiting for nodes
	StateRun      State = "RUN"      // allocated and running
	StateInactive State = "INACTIVE" // finished or cancelled
)

// Spec describes a job submission.
type Spec struct {
	// Name is a user-facing label ("gemm-6node").
	Name string `json:"name"`
	// App names the application model in the cluster's catalog
	// ("lammps", "gemm", "quicksilver", "laghos", "nqueens").
	App string `json:"app"`
	// Nodes is the requested node count.
	Nodes int `json:"nodes"`
	// SizeFactor scales the problem size (Table III runs Quicksilver at
	// 10x). Zero means 1.
	SizeFactor float64 `json:"size_factor,omitempty"`
	// RepFactor scales the iteration count (Table III doubles GEMM's
	// repetitions). Zero means 1.
	RepFactor float64 `json:"rep_factor,omitempty"`
	// PowerPolicy optionally selects a per-job power policy, overriding
	// the power manager's cluster default — the user-level customization
	// the paper's framework inherits from Flux ("different users can
	// choose different power-aware scheduling policies within their
	// respective allocations", §I). Interpreted by the power manager;
	// the job manager itself carries it opaquely.
	PowerPolicy string `json:"power_policy,omitempty"`
}

// Validate checks a spec before submission.
func (s Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("job: spec needs an application name")
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("job: spec requests %d nodes", s.Nodes)
	}
	if s.SizeFactor < 0 || s.RepFactor < 0 {
		return fmt.Errorf("job: negative scaling factor")
	}
	return nil
}

// Record is the job manager's view of one job.
type Record struct {
	ID    uint64  `json:"id"`
	Spec  Spec    `json:"spec"`
	State State   `json:"state"`
	Ranks []int32 `json:"ranks,omitempty"`
	// Times are simulation seconds; zero means "not yet".
	SubmitSec float64 `json:"submit_sec"`
	StartSec  float64 `json:"start_sec"`
	EndSec    float64 `json:"end_sec"`
	// QueueWaitSec is StartSec−SubmitSec once the job starts.
	QueueWaitSec float64 `json:"queue_wait_sec"`
	// PredNodeW is the dispatcher's predicted per-node draw at admission
	// time (0 until first considered for dispatch).
	PredNodeW float64 `json:"pred_node_w,omitempty"`
}

// Options configures the manager's scheduling. The zero value is the
// paper's baseline: FCFS, no power budget.
type Options struct {
	// Policy names the sched policy ("fcfs", "power-aware"); "" = FCFS.
	Policy string
	// BudgetW is the cluster power budget the dispatcher admits against;
	// 0 = unlimited.
	BudgetW float64
	// HW is the machine model the predictor derives catalog priors from.
	// The zero Config falls back to Lassen.
	HW hw.Config
}

// Manager is the job-manager broker module. Load it on rank 0.
type Manager struct {
	computeRanks []int32
	opts         Options

	mu      sync.Mutex
	ctx     *broker.Context
	disp    *sched.Dispatcher
	pred    *sched.Predictor
	records map[uint64]*Record
	queue   []uint64 // submission order, SCHED state only
	nextID  uint64

	// queue-wait accounting over started jobs
	waitCount  int
	waitSumSec float64
	waitMaxSec float64
}

// NewManager creates a job manager scheduling over the given compute
// ranks with the baseline FCFS policy and no power budget. Normally that
// is every rank in the instance: brokers double as compute nodes, as on
// real Flux systems.
func NewManager(computeRanks []int32) *Manager {
	return NewManagerWith(computeRanks, Options{})
}

// NewManagerWith creates a job manager with explicit scheduling options.
// An unknown policy name falls back to FCFS at Init (surfaced in the
// job-manager.sched status), keeping module load infallible.
func NewManagerWith(computeRanks []int32, opts Options) *Manager {
	rs := append([]int32(nil), computeRanks...)
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	if opts.HW.Sockets == 0 {
		opts.HW = hw.LassenConfig()
	}
	return &Manager{
		computeRanks: rs,
		opts:         opts,
		records:      make(map[uint64]*Record),
	}
}

// Name implements broker.Module.
func (m *Manager) Name() string { return ModuleName }

// Shutdown implements broker.Module.
func (m *Manager) Shutdown() error { return nil }

// Init implements broker.Module.
func (m *Manager) Init(ctx *broker.Context) error {
	m.ctx = ctx
	policy, err := sched.New(m.opts.Policy)
	if err != nil {
		policy = sched.FCFS{}
	}
	m.pred = sched.NewPredictor(m.opts.HW, sched.PredictorConfig{})
	m.disp = sched.NewDispatcher(sched.NewPool(m.computeRanks), policy, m.opts.BudgetW)
	return ctx.RegisterService(ModuleName, func(req *broker.Request) {
		switch req.Msg.Topic {
		case "job-manager.submit":
			m.handleSubmit(req)
		case "job-manager.finish":
			m.handleFinish(req)
		case "job-manager.cancel":
			m.handleCancel(req)
		case "job-manager.info":
			m.handleInfo(req)
		case "job-manager.list":
			m.handleList(req)
		case "job-manager.sched":
			m.handleSched(req)
		default:
			_ = req.Fail(msg.ENOSYS, fmt.Sprintf("job-manager: unknown operation %q", req.Msg.Topic))
		}
	})
}

func (m *Manager) handleSubmit(req *broker.Request) {
	var spec Spec
	if err := req.Msg.Unmarshal(&spec); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	if spec.Nodes > len(m.computeRanks) {
		_ = req.Fail(msg.EINVAL, fmt.Sprintf(
			"job: %d nodes requested, cluster has %d", spec.Nodes, len(m.computeRanks)))
		return
	}
	if spec.SizeFactor == 0 {
		spec.SizeFactor = 1
	}
	if spec.RepFactor == 0 {
		spec.RepFactor = 1
	}
	m.mu.Lock()
	m.nextID++
	rec := &Record{
		ID:        m.nextID,
		Spec:      spec,
		State:     StateSched,
		SubmitSec: m.ctx.Clock().Now().Seconds(),
	}
	m.records[rec.ID] = rec
	m.queue = append(m.queue, rec.ID)
	m.mu.Unlock()

	_ = m.ctx.Publish(EventSubmit, rec)
	_ = req.Respond(map[string]uint64{"id": rec.ID})
	m.trySchedule()
}

// trySchedule hands the current queue to the dispatcher and starts
// whatever the policy admits. The dispatcher enforces the power budget
// centrally, so this holds regardless of policy implementation.
func (m *Manager) trySchedule() {
	m.mu.Lock()
	queue := make([]sched.Job, 0, len(m.queue))
	for _, id := range m.queue {
		rec := m.records[id]
		if rec.PredNodeW == 0 {
			rec.PredNodeW = m.pred.Predict(rec.Spec.App, rec.Spec.Nodes)
		}
		queue = append(queue, sched.Job{
			ID:        rec.ID,
			App:       rec.Spec.App,
			Nodes:     rec.Spec.Nodes,
			PredNodeW: rec.PredNodeW,
			SubmitSec: rec.SubmitSec,
		})
	}
	admits := m.disp.Dispatch(queue)
	started := make([]Record, 0, len(admits))
	now := m.ctx.Clock().Now().Seconds()
	for _, a := range admits {
		rec := m.records[a.ID]
		for i, id := range m.queue {
			if id == a.ID {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		rec.State = StateRun
		rec.Ranks = a.Ranks
		rec.StartSec = now
		rec.QueueWaitSec = now - rec.SubmitSec
		m.waitCount++
		m.waitSumSec += rec.QueueWaitSec
		if rec.QueueWaitSec > m.waitMaxSec {
			m.waitMaxSec = rec.QueueWaitSec
		}
		started = append(started, *rec)
	}
	m.mu.Unlock()

	for i := range started {
		_ = m.ctx.Publish(EventStart, started[i])
	}
}

type idRequest struct {
	ID uint64 `json:"id"`
}

func (m *Manager) handleFinish(req *broker.Request) {
	var body idRequest
	if err := req.Msg.Unmarshal(&body); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	m.mu.Lock()
	rec, ok := m.records[body.ID]
	if !ok {
		m.mu.Unlock()
		_ = req.Fail(msg.ENOENT, fmt.Sprintf("job: no such job %d", body.ID))
		return
	}
	if rec.State != StateRun {
		state := rec.State
		m.mu.Unlock()
		_ = req.Fail(msg.EINVAL, fmt.Sprintf("job: job %d is %s, not RUN", body.ID, state))
		return
	}
	rec.State = StateInactive
	rec.EndSec = m.ctx.Clock().Now().Seconds()
	m.disp.Release(rec.ID, rec.Ranks)
	finished := *rec
	m.mu.Unlock()

	m.observe(finished)
	_ = m.ctx.Publish(EventFinish, finished)
	_ = req.Respond(finished)
	m.trySchedule()
}

// observe asynchronously queries the power monitor for the finished
// job's in-network aggregate and feeds the measured average node power
// back to the predictor. Best-effort: instances without a power monitor
// (or with the job's window already evicted) simply learn nothing from
// this job.
func (m *Manager) observe(rec Record) {
	type aggRequest struct {
		JobID uint64 `json:"jobid"`
		Mode  string `json:"mode"`
	}
	type aggResponse struct {
		AvgNodePowerW float64 `json:"avg_node_power_w"`
		NodesWithData int     `json:"nodes_with_data"`
	}
	f := m.ctx.RPC(msg.NodeAny, monitorTopic, aggRequest{JobID: rec.ID, Mode: "aggregate"})
	f.Then(func(resp *msg.Message) {
		if resp.Err() != nil {
			return
		}
		var agg aggResponse
		if err := resp.Unmarshal(&agg); err != nil || agg.NodesWithData == 0 {
			return
		}
		m.pred.Observe(rec.Spec.App, rec.Spec.Nodes, agg.AvgNodePowerW)
	})
}

func (m *Manager) handleCancel(req *broker.Request) {
	var body idRequest
	if err := req.Msg.Unmarshal(&body); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	m.mu.Lock()
	rec, ok := m.records[body.ID]
	if !ok || rec.State != StateSched {
		m.mu.Unlock()
		_ = req.Fail(msg.EINVAL, "job: only queued jobs can be cancelled")
		return
	}
	rec.State = StateInactive
	rec.EndSec = m.ctx.Clock().Now().Seconds()
	for i, id := range m.queue {
		if id == body.ID {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	cancelled := *rec
	m.mu.Unlock()
	_ = req.Respond(cancelled)
	m.trySchedule()
}

func (m *Manager) handleInfo(req *broker.Request) {
	var body idRequest
	if err := req.Msg.Unmarshal(&body); err != nil {
		_ = req.Fail(msg.EINVAL, err.Error())
		return
	}
	m.mu.Lock()
	rec, ok := m.records[body.ID]
	var cp Record
	if ok {
		cp = *rec
	}
	m.mu.Unlock()
	if !ok {
		_ = req.Fail(msg.ENOENT, fmt.Sprintf("job: no such job %d", body.ID))
		return
	}
	_ = req.Respond(cp)
}

func (m *Manager) handleList(req *broker.Request) {
	m.mu.Lock()
	out := make([]Record, 0, len(m.records))
	for _, rec := range m.records {
		out = append(out, *rec)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	_ = req.Respond(map[string][]Record{"jobs": out})
}

// SchedStatus is the job-manager.sched response: dispatcher state,
// learned predictor corrections, and queue-wait accounting.
type SchedStatus struct {
	sched.Stats
	QueueDepth      int             `json:"queue_depth"`
	Predictor       []sched.AppStat `json:"predictor,omitempty"`
	StartedJobs     int             `json:"started_jobs"`
	AvgQueueWaitSec float64         `json:"avg_queue_wait_sec"`
	MaxQueueWaitSec float64         `json:"max_queue_wait_sec"`
}

func (m *Manager) handleSched(req *broker.Request) {
	st := SchedStatus{
		Stats:     m.disp.Stats(),
		Predictor: m.pred.Snapshot(),
	}
	m.mu.Lock()
	st.QueueDepth = len(m.queue)
	st.StartedJobs = m.waitCount
	if m.waitCount > 0 {
		st.AvgQueueWaitSec = m.waitSumSec / float64(m.waitCount)
	}
	st.MaxQueueWaitSec = m.waitMaxSec
	m.mu.Unlock()
	_ = req.Respond(st)
}

// Client wraps the job-manager services for any broker in the instance.
type Client struct {
	b *broker.Broker
}

// NewClient returns a job-manager client issuing requests from b.
func NewClient(b *broker.Broker) *Client { return &Client{b: b} }

// Submit queues a job, returning its ID.
func (c *Client) Submit(spec Spec) (uint64, error) {
	resp, err := c.b.Call(msg.NodeAny, "job-manager.submit", spec)
	if err != nil {
		return 0, err
	}
	var body map[string]uint64
	if err := resp.Unmarshal(&body); err != nil {
		return 0, err
	}
	return body["id"], nil
}

// Finish marks a running job complete, releasing its nodes.
func (c *Client) Finish(id uint64) (Record, error) {
	resp, err := c.b.Call(msg.NodeAny, "job-manager.finish", idRequest{ID: id})
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := resp.Unmarshal(&rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Cancel removes a queued job.
func (c *Client) Cancel(id uint64) error {
	_, err := c.b.Call(msg.NodeAny, "job-manager.cancel", idRequest{ID: id})
	return err
}

// Info fetches a job record.
func (c *Client) Info(id uint64) (Record, error) {
	resp, err := c.b.Call(msg.NodeAny, "job-manager.info", idRequest{ID: id})
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := resp.Unmarshal(&rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// List fetches all job records, oldest first.
func (c *Client) List() ([]Record, error) {
	resp, err := c.b.Call(msg.NodeAny, "job-manager.list", nil)
	if err != nil {
		return nil, err
	}
	var body map[string][]Record
	if err := resp.Unmarshal(&body); err != nil {
		return nil, err
	}
	return body["jobs"], nil
}

// Sched fetches the scheduler/dispatcher status.
func (c *Client) Sched() (SchedStatus, error) {
	resp, err := c.b.Call(msg.NodeAny, "job-manager.sched", nil)
	if err != nil {
		return SchedStatus{}, err
	}
	var st SchedStatus
	if err := resp.Unmarshal(&st); err != nil {
		return SchedStatus{}, err
	}
	return st, nil
}
