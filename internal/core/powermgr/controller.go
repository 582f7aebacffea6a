package powermgr

import (
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

// jobCtl is the controller's per-job state. It lives as long as the
// job's allocation: what a finished job contributed stays in the fleet
// totals (the policy experiment reads those at the end of the run).
type jobCtl struct {
	capHist     []CapPoint
	violations  uint64
	sustained   uint64
	consecutive int
	integ       float64 // integral term, watt-seconds scaled by ctlKi
	lastObsW    float64 // last observed per-node draw
	lastTargetW float64
	retunes     uint64
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

// controllerRound closes the loop over one round of observations:
// violation accounting always, PI retuning in retune mode. The PI error
// per job is (observed + headroom) − cap: positive for a throttled job
// whose demand presses against its cap, negative for a job leaving
// slack. Reclaim is demand-driven: cuts are applied only to the extent
// grants need funding beyond the budget's free headroom — when the
// fleet is under budget and nobody is throttled, caps stay put, so a
// phased application is not stripped of watts it will want again at its
// next high-phase entry (a cap sitting above a job's draw costs
// nothing; re-granting it late costs real time). Anti-windup is
// conditional integration — a round whose output saturates at the
// hardware floor or the machine peak, or whose movement the reclaim and
// budget scaling held back, does not accumulate integral in the
// direction of the clamp, so the integrator never winds past what the
// plant can express. New caps are quantized to what the per-GPU
// derivation can realize and the total is repaired against the global
// budget by scaling back this round's increases, so retuning never
// grows fleet draw past the cluster cap.
func (m *Manager) controllerRound(obs map[uint64][]float64) {
	m.mu.Lock()

	m.ctlRounds++
	dt := m.ctl.Interval.Seconds()
	maxPerNode := m.maxNodePower()
	cfg := m.node.Config()
	floor := m.capFloorW()
	// Per-node cap changes below the per-GPU quantum cannot be expressed
	// by the enforcement path; use it as the retune granularity.
	quantum := cfg.GPUCapQuantumW * float64(cfg.GPUs)
	if quantum <= 0 {
		quantum = 1
	}

	type retune struct {
		alloc    *Allocation
		newCap   float64
		e        float64 // PI error this round
		proposed float64 // pre-scaling proposal, for anti-windup
		sat      int     // -1 floor / +1 peak saturation
	}
	var retunes []retune

	jobIDs := make([]uint64, 0, len(obs))
	for id := range obs {
		jobIDs = append(jobIDs, id)
	}
	sort.Slice(jobIDs, func(i, j int) bool { return jobIDs[i] < jobIDs[j] })

	for _, id := range jobIDs {
		samples := obs[id]
		a, ok := m.allocs[id]
		if !ok || len(samples) == 0 {
			continue
		}
		mean := 0.0
		for _, w := range samples {
			mean += w
		}
		mean /= float64(len(samples))

		jc := m.jobCtlLocked(id)
		jc.lastObsW = mean

		// Violation accounting (observe and retune modes alike).
		if a.PerNodeW > 0 && mean > a.PerNodeW+ctlMarginW {
			jc.violations++
			m.ctlViolations++
			jc.consecutive++
			if jc.consecutive == ctlSustainedRounds {
				jc.sustained++
				m.ctlSustained++
			}
		} else {
			jc.consecutive = 0
		}

		if m.ctl.Mode != ControllerRetune || a.PerNodeW <= 0 {
			continue
		}

		// PI step.
		target := mean + m.ctl.HeadroomW
		jc.lastTargetW = target
		e := target - a.PerNodeW
		delta := m.ctl.Kp*e + ctlKi*jc.integ
		if delta > m.ctl.MaxStepW {
			delta = m.ctl.MaxStepW
		} else if delta < -m.ctl.MaxStepW {
			delta = -m.ctl.MaxStepW
		}
		proposed := a.PerNodeW + delta

		saturated := 0
		if proposed < floor {
			proposed = floor
			saturated = -1
		}
		if proposed > maxPerNode {
			proposed = maxPerNode
			saturated = 1
		}
		// Quantize downward: rounding up could overshoot the budget.
		if proposed > floor {
			steps := (proposed - floor) / quantum
			proposed = floor + float64(int(steps))*quantum
		}
		retunes = append(retunes, retune{
			alloc: a, newCap: proposed, e: e, proposed: proposed, sat: saturated,
		})
	}

	// Demand-driven reclaim: cuts fund raises. Tally what this round's
	// raises need beyond the budget's free headroom; if the budget can
	// absorb every raise, drop the cuts entirely, otherwise scale every
	// cut to just cover the shortfall. Without a global cap there is
	// never a reason to reclaim.
	if len(retunes) > 0 {
		raiseW, cutW := 0.0, 0.0
		for _, r := range retunes {
			d := (r.newCap - r.alloc.PerNodeW) * float64(len(r.alloc.Ranks))
			if d > 0 {
				raiseW += d
			} else {
				cutW += -d
			}
		}
		needW := raiseW // no cap: nothing to fund, drop all cuts
		if m.cfg.GlobalCapW > 0 {
			total := 0.0
			for _, a := range m.allocs {
				total += a.PerNodeW * float64(len(a.Ranks))
			}
			needW = raiseW - (m.cfg.GlobalCapW - total)
		}
		scale := 0.0
		if needW > 0 && cutW > 0 {
			scale = needW / cutW
			if scale > 1 {
				scale = 1
			}
		}
		for i, r := range retunes {
			if r.newCap >= r.alloc.PerNodeW {
				continue
			}
			cut := (r.alloc.PerNodeW - r.newCap) * scale
			scaled := r.alloc.PerNodeW - cut
			// Re-quantize downward after scaling (a cut proposal already
			// honors the floor, so scaling it back cannot go below it).
			if scaled > floor {
				steps := (scaled - floor) / quantum
				scaled = floor + float64(int(steps))*quantum
			}
			retunes[i].newCap = scaled
		}
	}

	// Budget repair: scale back this round's increases until the fleet
	// fits the global cap. Decreases always stand — they only help.
	if m.cfg.GlobalCapW > 0 && len(retunes) > 0 {
		total := 0.0
		for _, a := range m.allocs {
			total += a.PerNodeW * float64(len(a.Ranks))
		}
		for _, r := range retunes {
			total += (r.newCap - r.alloc.PerNodeW) * float64(len(r.alloc.Ranks))
		}
		if over := total - m.cfg.GlobalCapW; over > 0 {
			raise := 0.0
			for _, r := range retunes {
				if d := r.newCap - r.alloc.PerNodeW; d > 0 {
					raise += d * float64(len(r.alloc.Ranks))
				}
			}
			if raise > 0 {
				shrink := 1 - over/raise
				if shrink < 0 {
					shrink = 0
				}
				for i, r := range retunes {
					if d := r.newCap - r.alloc.PerNodeW; d > 0 {
						scaled := r.alloc.PerNodeW + d*shrink
						// Re-quantize downward after scaling.
						if scaled > floor {
							steps := (scaled - floor) / quantum
							scaled = floor + float64(int(steps))*quantum
						}
						retunes[i].newCap = scaled
					}
				}
			}
		}
	}

	// Conditional integration: accumulate only when the output was not
	// clamped in the error's direction — by hardware saturation or by
	// the reclaim/budget scaling passes holding the movement back.
	for _, r := range retunes {
		if (r.sat < 0 && r.e < 0) || (r.sat > 0 && r.e > 0) {
			continue
		}
		if r.newCap != r.proposed {
			continue
		}
		m.jobCtlLocked(r.alloc.JobID).integ += r.e * dt
	}

	// Apply: mutate allocations, record history, and re-push through
	// the job-level manager's concurrent fan-out (anti-windup also
	// bounds the push rate: unchanged caps are not re-pushed).
	var push []*Allocation
	for _, r := range retunes {
		if r.newCap == r.alloc.PerNodeW {
			continue
		}
		m.jobCtlLocked(r.alloc.JobID).retunes++
		m.ctlRetunes++
		if d := r.newCap - r.alloc.PerNodeW; d < 0 {
			m.ctlReclaimedW += -d * float64(len(r.alloc.Ranks))
		} else {
			m.ctlGrantedW += d * float64(len(r.alloc.Ranks))
		}
		r.alloc.PerNodeW = r.newCap
		m.recordCapLocked(r.alloc.JobID, r.newCap)
		push = append(push, r.alloc)
	}
	m.mu.Unlock()

	sort.Slice(push, func(i, j int) bool { return push[i].JobID < push[j].JobID })
	for _, a := range push {
		m.pushAllocation(a)
	}
}

// capFloorW is the lowest per-node cap the enforcement path can express:
// the idle reserve plus every GPU at its minimum cap. Below this the
// per-GPU derivation clamps to GPUMinW anyway, so a lower cap only
// manufactures violations the hardware cannot prevent.
func (m *Manager) capFloorW() float64 {
	cfg := m.node.Config()
	return idleReserveW + float64(cfg.GPUs)*cfg.GPUMinPowerW
}

// controllerStatusLocked assembles the controller section of
// power-manager.status. Caller holds m.mu.
func (m *Manager) controllerStatusLocked() ControllerStatus {
	st := ControllerStatus{
		Mode:            m.ctl.Mode,
		Rounds:          m.ctlRounds,
		Retunes:         m.ctlRetunes,
		Violations:      m.ctlViolations,
		Sustained:       m.ctlSustained,
		ReclaimedWTotal: m.ctlReclaimedW,
		GrantedWTotal:   m.ctlGrantedW,
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
