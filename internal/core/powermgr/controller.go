package powermgr

import (
	"slices"
	"sort"
	"sync"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/simtime"
)

// Controller modes.
const (
	// ControllerOff disables the closed loop (the static proportional
	// split of §III-B1 stands unmodified).
	ControllerOff = ""
	// ControllerObserve runs observation rounds and counts cap
	// violations but never retunes — the accounting baseline, so FCFS
	// and closed-loop runs report violations on the same definition.
	ControllerObserve = "observe"
	// ControllerRetune observes and retunes: the closed loop.
	ControllerRetune = "retune"
)

// ControllerConfig tunes the closed-loop budget controller the rank-0
// manager runs on top of the proportional split. Zero values take
// defaults.
type ControllerConfig struct {
	// Mode is off ("") / "observe" / "retune".
	Mode string
	// Interval is the observation/retune period (default 4 s).
	Interval time.Duration
	// Kp is the proportional gain on the cap-tracking error in watts
	// (default 0.5).
	Kp float64
	// HeadroomW is how far above a job's observed draw its cap should
	// settle (default 40 W per node): enough to let demand grow and be
	// seen, small enough to keep slack reclaimable.
	HeadroomW float64
	// MaxStepW bounds one round's per-node cap change (default 200 W),
	// keeping the loop stable against telemetry spikes.
	MaxStepW float64
}

const (
	// ctlKi is the PI integral gain, per second.
	ctlKi = 0.08
	// ctlMarginW is the violation threshold: an observation more than
	// ctlMarginW above the cap counts as a cap violation.
	ctlMarginW = 20
	// ctlSustainedRounds is how many consecutive violating rounds make a
	// violation "sustained".
	ctlSustainedRounds = 3
	// ctlHistoryLen bounds the per-job cap history ring.
	ctlHistoryLen = 64
)

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Interval <= 0 {
		c.Interval = 4 * time.Second
	}
	if c.Kp == 0 {
		c.Kp = 0.5
	}
	if c.HeadroomW == 0 {
		c.HeadroomW = 40
	}
	if c.MaxStepW == 0 {
		c.MaxStepW = 200
	}
	return c
}

// CapPoint is one entry of a job's cap history.
type CapPoint struct {
	Sec      float64 `json:"sec"`
	PerNodeW float64 `json:"per_node_w"`
}

// ctlState is the part of a job's controller state the control law
// reads and writes.
type ctlState struct {
	violations  uint64
	sustained   uint64
	consecutive int
	integ       float64 // integral term, watt-seconds scaled by ctlKi
	lastObsW    float64 // last observed per-node draw
	lastTargetW float64
	retunes     uint64
}

// jobCtl is the controller's per-job state. It lives as long as the
// job's allocation: what a finished job contributed stays in the fleet
// totals (the policy experiment reads those at the end of the run).
type jobCtl struct {
	ctlState
	capHist []CapPoint
}

// ctlFleet holds the controller's fleet totals since the manager loaded.
type ctlFleet struct {
	rounds, retunes, violations, sustained uint64
	reclaimedW, grantedW                   float64
}

// ControllerStatus is the controller section of power-manager.status:
// fleet totals since the manager loaded, plus per-job detail for the
// live jobs.
type ControllerStatus struct {
	Mode            string  `json:"mode"`
	Rounds          uint64  `json:"rounds"`
	Retunes         uint64  `json:"retunes"`
	Violations      uint64  `json:"violations"`
	Sustained       uint64  `json:"sustained_violations"`
	ReclaimedWTotal float64 `json:"reclaimed_w_total"`
	GrantedWTotal   float64 `json:"granted_w_total"`

	// Jobs holds the live jobs, in job-id order.
	Jobs []JobControl `json:"jobs,omitempty"`
}

// JobControl is one job's controller view.
type JobControl struct {
	JobID       uint64     `json:"jobid"`
	Violations  uint64     `json:"violations"`
	Sustained   uint64     `json:"sustained_violations"`
	Retunes     uint64     `json:"retunes"`
	LastObsW    float64    `json:"last_obs_w"`
	LastTargetW float64    `json:"last_target_w,omitempty"`
	CapHistory  []CapPoint `json:"cap_history,omitempty"`
}

// recordCapLocked appends a cap-history point for a job, ring-bounded.
// Called with m.mu held whenever an allocation's PerNodeW is set.
func (m *Manager) recordCapLocked(jobID uint64, perNodeW float64) {
	jc := m.jobCtlLocked(jobID)
	n := len(jc.capHist)
	if n > 0 && jc.capHist[n-1].PerNodeW == perNodeW {
		return
	}
	jc.capHist = append(jc.capHist, CapPoint{
		Sec:      m.ctx.Clock().Now().Seconds(),
		PerNodeW: perNodeW,
	})
	if len(jc.capHist) > ctlHistoryLen {
		jc.capHist = jc.capHist[len(jc.capHist)-ctlHistoryLen:]
	}
}

func (m *Manager) jobCtlLocked(jobID uint64) *jobCtl {
	jc, ok := m.jobCtls[jobID]
	if !ok {
		jc = &jobCtl{}
		m.jobCtls[jobID] = jc
	}
	return jc
}

// observeResponse is a node's answer to power-manager.node.observe.
type observeResponse struct {
	Rank   int32   `json:"rank"`
	NodeW  float64 `json:"node_w"`
	LimitW float64 `json:"limit_w"`
}

// handleObserve answers with the node's last sampled power, the
// controller's feedback signal.
func (m *Manager) handleObserve(req *broker.Request) {
	m.mu.Lock()
	resp := observeResponse{Rank: m.ctx.Rank(), NodeW: m.lastNodeW, LimitW: m.nodeLimitW}
	m.mu.Unlock()
	_ = req.Respond(resp)
}

// onControllerInterval starts one observation round: a concurrent
// fan-out of observe RPCs to every allocated rank. Nothing blocks — the
// round completes in the Then callback of the last response, whether
// acknowledged, failed, or timed out.
func (m *Manager) onControllerInterval(simtime.Time) {
	type target struct {
		jobID uint64
		rank  int32
	}
	m.mu.Lock()
	var targets []target
	for _, a := range m.allocs {
		for _, r := range a.Ranks {
			targets = append(targets, target{a.JobID, r})
		}
	}
	m.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].jobID != targets[j].jobID {
			return targets[i].jobID < targets[j].jobID
		}
		return targets[i].rank < targets[j].rank
	})

	round := &struct {
		sync.Mutex
		pending int
		obs     map[uint64][]float64
	}{pending: len(targets), obs: make(map[uint64][]float64)}

	for _, tg := range targets {
		tg := tg
		f := m.ctx.RPCWithTimeout(tg.rank, "power-manager.node.observe", nil, m.cfg.PushTimeout)
		f.Then(func(resp *msg.Message) {
			var done bool
			round.Lock()
			if resp.Err() == nil {
				var or observeResponse
				if err := resp.Unmarshal(&or); err == nil && or.NodeW > 0 {
					round.obs[tg.jobID] = append(round.obs[tg.jobID], or.NodeW)
				}
			}
			round.pending--
			done = round.pending == 0
			round.Unlock()
			if done {
				m.controllerRound(round.obs)
			}
		})
	}
}

// controllerRound closes the loop over one round of observations: it
// snapshots the live jobs under the lock, runs the control law
// (ctlStep), then applies the new caps and counters and pushes the caps
// that moved, in job-id order.
func (m *Manager) controllerRound(obs map[uint64][]float64) {
	m.mu.Lock()
	jobs := m.snapshotLocked(obs)
	next, fleet := ctlStep(jobs, m.limitsLocked(), m.fleet)
	m.fleet = fleet
	var moved []ctlJob
	for i, j := range next {
		m.jobCtlLocked(j.id).ctlState = j.st
		if j.capW != jobs[i].capW {
			moved = append(moved, j)
		}
	}
	push := m.applyLocked(moved)
	m.mu.Unlock()
	m.pushAll(push)
}

// ctlJob is one live job as the control law sees it.
type ctlJob struct {
	id    uint64
	nodes int
	capW  float64 // per-node cap
	obsW  float64 // mean observed per-node draw this round
	obsN  int     // observations behind obsW; 0 = not observed
	st    ctlState
}

// ctlLimits is everything besides the jobs that the control law reads.
type ctlLimits struct {
	dt                          float64 // seconds since the last round
	floorW, peakW, quantumW     float64 // per-node cap envelope and grid
	budgetW                     float64 // cluster bound; 0 = unconstrained
	mode                        string
	kp, ki, headroomW, maxStepW float64
}

// snapshotLocked lists every live allocation in job-id order, with this
// round's observation mean (when obs has one) and its controller state.
func (m *Manager) snapshotLocked(obs map[uint64][]float64) []ctlJob {
	jobs := make([]ctlJob, 0, len(m.allocs))
	for id, a := range m.allocs {
		j := ctlJob{id: id, nodes: len(a.Ranks), capW: a.PerNodeW, st: m.jobCtlLocked(id).ctlState}
		if samples := obs[id]; len(samples) > 0 {
			for _, w := range samples {
				j.obsW += w
			}
			j.obsW /= float64(len(samples))
			j.obsN = len(samples)
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	return jobs
}

// limitsLocked gathers the control law's limits from the node model and
// the configuration. The floor is the lowest per-node cap the enforcement
// path can express: the idle reserve plus every GPU at its minimum cap.
// Below it the per-GPU derivation clamps to GPUMinW anyway, so a lower
// cap only manufactures violations the hardware cannot prevent. Per-node
// cap changes below the per-GPU quantum cannot be expressed either, so
// the quantum is the retune granularity.
func (m *Manager) limitsLocked() ctlLimits {
	cfg := m.node.Config()
	quantum := cfg.GPUCapQuantumW * float64(cfg.GPUs)
	if quantum <= 0 {
		quantum = 1
	}
	return ctlLimits{
		dt:        m.ctl.Interval.Seconds(),
		floorW:    idleReserveW + float64(cfg.GPUs)*cfg.GPUMinPowerW,
		peakW:     m.maxNodePower(),
		quantumW:  quantum,
		budgetW:   m.cfg.GlobalCapW,
		mode:      m.ctl.Mode,
		kp:        m.ctl.Kp,
		ki:        ctlKi,
		headroomW: m.ctl.HeadroomW,
		maxStepW:  m.ctl.MaxStepW,
	}
}

// ctlStep is the control law: one round over the live jobs, in job-id
// order. It is pure (no broker, lock or clock) and returns a fresh slice
// with each job's new cap and state, plus the fleet totals after the
// round.
//
// Violation accounting runs on every observed job; retune mode adds a PI
// step on the error (observed + headroom) − cap: positive for a throttled
// job whose demand presses against its cap, negative for a job leaving
// slack. Reclaim is demand-driven: cuts are applied only to the extent
// grants need funding beyond the budget's free headroom — when the fleet
// is under budget and nobody is throttled, caps stay put, so a phased
// application is not stripped of watts it will want again at its next
// high-phase entry (a cap sitting above a job's draw costs nothing;
// re-granting it late costs real time). Anti-windup is conditional
// integration — a round whose output saturates at the hardware floor or
// the machine peak, or whose movement the reclaim and budget scaling held
// back, does not accumulate integral in the direction of the clamp, so
// the integrator never winds past what the plant can express. New caps
// are quantized down to the grid, and the total is repaired against the
// budget by scaling back this round's increases, so retuning never grows
// fleet caps past the cluster bound.
func ctlStep(jobs []ctlJob, lim ctlLimits, fleet ctlFleet) ([]ctlJob, ctlFleet) {
	fleet.rounds++
	next := slices.Clone(jobs)

	type move struct {
		i        int     // index into next
		newW     float64 // this round's cap, after scaling
		e        float64 // PI error this round
		proposed float64 // pre-scaling proposal, for anti-windup
		sat      int     // -1 floor / +1 peak saturation
	}
	var moves []move
	for i := range next {
		j := &next[i]
		if j.obsN == 0 {
			continue
		}
		j.st.lastObsW = j.obsW

		// Violation accounting (observe and retune modes alike).
		if j.capW > 0 && j.obsW > j.capW+ctlMarginW {
			j.st.violations++
			fleet.violations++
			j.st.consecutive++
			if j.st.consecutive == ctlSustainedRounds {
				j.st.sustained++
				fleet.sustained++
			}
		} else {
			j.st.consecutive = 0
		}

		if lim.mode != ControllerRetune || j.capW <= 0 {
			continue
		}

		// PI step.
		target := j.obsW + lim.headroomW
		j.st.lastTargetW = target
		e := target - j.capW
		delta := lim.kp*e + lim.ki*j.st.integ
		if delta > lim.maxStepW {
			delta = lim.maxStepW
		} else if delta < -lim.maxStepW {
			delta = -lim.maxStepW
		}
		proposed := j.capW + delta
		sat := 0
		if proposed < lim.floorW {
			proposed = lim.floorW
			sat = -1
		}
		if proposed > lim.peakW {
			proposed = lim.peakW
			sat = 1
		}
		proposed = quantizeDown(proposed, lim)
		moves = append(moves, move{i: i, newW: proposed, e: e, proposed: proposed, sat: sat})
	}

	// Demand-driven reclaim: cuts fund raises. Tally what this round's
	// raises need beyond the budget's free headroom; if the budget can
	// absorb every raise, drop the cuts entirely, otherwise scale every
	// cut to just cover the shortfall. Without a global cap there is
	// never a reason to reclaim.
	if len(moves) > 0 {
		raiseW, cutW := 0.0, 0.0
		for _, mv := range moves {
			d := (mv.newW - next[mv.i].capW) * float64(next[mv.i].nodes)
			if d > 0 {
				raiseW += d
			} else {
				cutW += -d
			}
		}
		needW := raiseW // no cap: nothing to fund, drop all cuts
		if lim.budgetW > 0 {
			needW = raiseW - (lim.budgetW - fleetW(jobs))
		}
		scale := 0.0
		if needW > 0 && cutW > 0 {
			scale = needW / cutW
			if scale > 1 {
				scale = 1
			}
		}
		for k, mv := range moves {
			old := next[mv.i].capW
			if mv.newW >= old {
				continue
			}
			// A cut proposal already honors the floor, so scaling it back
			// cannot go below it (beyond rounding).
			moves[k].newW = quantizeDown(old-(old-mv.newW)*scale, lim)
		}
	}

	// Budget repair: scale back this round's increases until the fleet
	// fits the global cap. Decreases always stand — they only help.
	if lim.budgetW > 0 && len(moves) > 0 {
		total := fleetW(jobs)
		raise := 0.0
		for _, mv := range moves {
			d := mv.newW - next[mv.i].capW
			total += d * float64(next[mv.i].nodes)
			if d > 0 {
				raise += d * float64(next[mv.i].nodes)
			}
		}
		if over := total - lim.budgetW; over > 0 && raise > 0 {
			shrink := max(1-over/raise, 0)
			for k, mv := range moves {
				if d := mv.newW - next[mv.i].capW; d > 0 {
					moves[k].newW = quantizeDown(next[mv.i].capW+d*shrink, lim)
				}
			}
		}
	}

	for _, mv := range moves {
		j := &next[mv.i]
		// Conditional integration: accumulate only when the output was
		// not clamped in the error's direction — by hardware saturation
		// or by the reclaim/budget scaling passes holding it back.
		if !((mv.sat < 0 && mv.e < 0) || (mv.sat > 0 && mv.e > 0)) && mv.newW == mv.proposed {
			j.st.integ += mv.e * lim.dt
		}
		if mv.newW == j.capW {
			continue
		}
		j.st.retunes++
		fleet.retunes++
		if d := mv.newW - j.capW; d < 0 {
			fleet.reclaimedW += -d * float64(j.nodes)
		} else {
			fleet.grantedW += d * float64(j.nodes)
		}
		j.capW = mv.newW
	}
	return next, fleet
}

// quantizeDown moves a cap above the floor down onto the grid floor +
// k·quantum: rounding up could overshoot the budget.
func quantizeDown(w float64, lim ctlLimits) float64 {
	if w > lim.floorW {
		steps := (w - lim.floorW) / lim.quantumW
		w = lim.floorW + float64(int(steps))*lim.quantumW
	}
	return w
}

// fleetW is the fleet's total cap, summed in job-id order (the order
// jobs come in) so that one seed gives the same float on every run: a
// float sum in map order can differ in its last bit between runs, and
// quantizeDown or the admission test can turn that bit into a different
// cap.
func fleetW(jobs []ctlJob) float64 {
	total := 0.0
	for _, j := range jobs {
		total += j.capW * float64(j.nodes)
	}
	return total
}

// evenSplit is §III-B1's proportional split: every job gets the budget
// over the live node count per node, at most the node peak — the peak
// itself when unconstrained.
func evenSplit(jobs []ctlJob, lim ctlLimits) []ctlJob {
	nodes := 0
	for _, j := range jobs {
		nodes += j.nodes
	}
	share := lim.peakW
	if lim.budgetW > 0 && nodes > 0 {
		share = min(lim.budgetW/float64(nodes), lim.peakW)
	}
	out := slices.Clone(jobs)
	for i := range out {
		out[i].capW = share
	}
	return out
}

// controllerStatusLocked assembles the controller section of
// power-manager.status. Caller holds m.mu.
func (m *Manager) controllerStatusLocked() ControllerStatus {
	st := ControllerStatus{
		Mode:            m.ctl.Mode,
		Rounds:          m.fleet.rounds,
		Retunes:         m.fleet.retunes,
		Violations:      m.fleet.violations,
		Sustained:       m.fleet.sustained,
		ReclaimedWTotal: m.fleet.reclaimedW,
		GrantedWTotal:   m.fleet.grantedW,
	}
	ids := make([]uint64, 0, len(m.jobCtls))
	for id := range m.jobCtls {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		jc := m.jobCtls[id]
		st.Jobs = append(st.Jobs, JobControl{
			JobID:       id,
			Violations:  jc.violations,
			Sustained:   jc.sustained,
			Retunes:     jc.retunes,
			LastObsW:    jc.lastObsW,
			LastTargetW: jc.lastTargetW,
			CapHistory:  append([]CapPoint(nil), jc.capHist...),
		})
	}
	return st
}
