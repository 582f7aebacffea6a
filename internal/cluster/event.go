package cluster

import "fluxpower/internal/simtime"

// The event-driven engine (Config.Engine == EngineEvent).
//
// Instead of one global ticker advancing every running job each Δt, every
// running job owns a pooled one-shot event on the engine shard (shard 0)
// that re-arms itself after each advance. The per-event work is identical
// to the tick engine's per-job work — advanceJob with dt = tick — and the
// events are pinned to the same global tick grid the ticker fires on, so
// the two engines integrate the same math at the same instants. What
// changes is the cost model: simulated time jumps from event to event, so
// an idle node (no job, no module timers due) contributes nothing to a
// simulated second, and wall-clock cost scales with active jobs and
// loaded modules, not fleet size.

// nextGrid returns the first global tick-grid instant strictly after now.
// Grid alignment is what makes the engines tick-equivalent: a job started
// mid-grid still takes its first (full-Δt) advance at the next multiple
// of tick, exactly when the tick engine's ticker would have reached it.
func (c *Cluster) nextGrid(now simtime.Time) simtime.Time {
	step := simtime.Time(tick)
	return (now/step + 1) * step
}

// scheduleJobEvent arms (or re-arms) a running job's next progress event.
// Events live on shard 0, the lowest shard, so at a shared instant demand
// updates always precede module sampling on the rank shards — the same
// ordering the tick engine gets from registering its ticker first.
func (c *Cluster) scheduleJobEvent(rj *runningJob) {
	rj.ev = c.Sched.EventAt(0, c.nextGrid(c.Sched.Now()), func(now simtime.Time) {
		c.onJobEvent(rj)
	})
}

// onJobEvent is one job's tick: advance by Δt, finish or re-arm.
func (c *Cluster) onJobEvent(rj *runningJob) {
	if c.closed.Load() {
		return
	}
	if cur, ok := c.running[rj.rec.ID]; !ok || cur != rj {
		// Finished or cancelled between scheduling and firing (the Stop in
		// onJobFinish makes this unreachable in practice; belt and braces).
		return
	}
	if c.advanceJob(rj, tick.Seconds()) {
		_, _ = c.JM.Finish(rj.rec.ID) // triggers onJobFinish + rescheduling
		return
	}
	c.scheduleJobEvent(rj)
}

// scheduleSubJobEvent arms a nested instance's sub-job progress event,
// also on the engine shard: sub-jobs are jobs like any other, they just
// finish through their sub-instance's job manager.
func (si *SubInstance) scheduleSubJobEvent(rj *runningJob) {
	c := si.c
	rj.ev = c.Sched.EventAt(0, c.nextGrid(c.Sched.Now()), func(now simtime.Time) {
		si.onSubJobEvent(rj)
	})
}

// onSubJobEvent is one sub-job's tick under the event engine.
func (si *SubInstance) onSubJobEvent(rj *runningJob) {
	c := si.c
	if c.closed.Load() || si.closed {
		return
	}
	if cur, ok := si.running[rj.rec.ID]; !ok || cur != rj {
		return
	}
	if si.advanceSubJob(rj, tick.Seconds()) {
		_, _ = si.JM.Finish(rj.rec.ID)
		return
	}
	si.scheduleSubJobEvent(rj)
}
