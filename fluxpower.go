// Package fluxpower is the public API of the reproduction of
// "Vendor-neutral and Production-grade Job Power Management in High
// Performance Computing" (SC 2024).
//
// It assembles, behind one façade, everything the paper's system needs: a
// simulated cluster (Lassen- or Tioga-like nodes), a Flux-style resource
// manager (brokers on a tree-based overlay network and an FCFS job
// manager), the flux-power-monitor telemetry module, and the
// flux-power-manager with its static, proportional-sharing and FFT-based
// (FPP) power policies. User-level allocations (SpawnAllocation) nest
// their own job manager and power manager inside the system instance.
//
// Quickstart:
//
//	c, err := fluxpower.NewCluster(fluxpower.Config{
//		System: fluxpower.Lassen,
//		Nodes:  8,
//		Policy: fluxpower.PolicyProportional,
//		GlobalPowerCapW: 9600,
//	})
//	id, _ := c.Submit(fluxpower.JobSpec{App: "gemm", Nodes: 6})
//	c.RunUntilIdle(time.Hour)
//	report, _ := c.Report(id)
//	fmt.Printf("%s: %.0f s, %.0f W avg/node\n", report.App, report.ExecSec, report.AvgNodePowerW)
//
// Everything is deterministic: the same Config.Seed replays the same run.
package fluxpower

import (
	"errors"
	"fmt"
	"io"
	"time"

	"fluxpower/internal/apps"
	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
)

// System selects the modelled machine.
type System = cluster.System

// Supported systems.
const (
	// Lassen models IBM Power AC922 nodes: 2 sockets, 4 NVIDIA Volta
	// GPUs, full OCC telemetry, OPAL node capping and NVML GPU capping.
	Lassen = cluster.Lassen
	// Tioga models HPE Cray EX235a nodes: 1 AMD Trento socket, 4 MI250X
	// OAMs (8 GPUs), CPU/OAM-only telemetry, capping disabled for users.
	Tioga = cluster.Tioga
)

// Policy selects the power-management policy.
type Policy = powermgr.Policy

// Policies.
const (
	// PolicyNone runs unconstrained: no power manager capping.
	PolicyNone = powermgr.PolicyNone
	// PolicyStatic applies a fixed vendor node-level cap on every node
	// (the IBM-default baseline the paper compares against).
	PolicyStatic = powermgr.PolicyStatic
	// PolicyProportional shares the global power bound across jobs in
	// proportion to their node counts (§III-B1).
	PolicyProportional = powermgr.PolicyProportional
	// PolicyFPP adds the per-GPU FFT-based dynamic controller (§III-B2).
	PolicyFPP = powermgr.PolicyFPP
)

// Applications lists the bundled application models (the paper's five
// workloads).
func Applications() []string { return apps.Names() }

// Config describes the cluster to build.
type Config struct {
	// System selects the machine model. Default Lassen.
	System System
	// Nodes is the cluster size. Required.
	Nodes int
	// Policy selects the power policy. Default PolicyNone.
	Policy Policy
	// GlobalPowerCapW is the cluster-level bound for the dynamic
	// policies; 0 = unconstrained.
	GlobalPowerCapW float64
	// StaticNodeCapW is the per-node vendor cap for PolicyStatic.
	StaticNodeCapW float64
	// Monitor loads the flux-power-monitor on every node (default true;
	// set DisableMonitor to turn it off).
	DisableMonitor bool
	// MonitorSampleInterval overrides the 2 s default.
	MonitorSampleInterval time.Duration
	// Seed drives every stochastic element. Same seed, same run.
	Seed int64
}

// JobSpec describes a job submission.
type JobSpec struct {
	// Name is an optional label.
	Name string
	// App names an application model (see Applications).
	App string
	// Nodes is the requested node count.
	Nodes int
	// SizeFactor scales the problem size (0 = 1).
	SizeFactor float64
	// RepFactor scales the iteration count (0 = 1).
	RepFactor float64
	// PowerPolicy optionally overrides the cluster's power policy for
	// this job (user-level customization, §I): "proportional" or "fpp".
	// Empty uses the cluster default.
	PowerPolicy Policy
}

// JobID identifies a submitted job.
type JobID = uint64

// JobState is a job's lifecycle state.
type JobState = job.State

// Job states.
const (
	StateSched    = job.StateSched
	StateRun      = job.StateRun
	StateInactive = job.StateInactive
)

// JobReport combines scheduling metadata with ground-truth power/energy
// accounting for one job.
type JobReport struct {
	ID    JobID
	Name  string
	App   string
	Nodes int
	State JobState

	SubmitSec float64
	StartSec  float64
	EndSec    float64
	// ExecSec is the execution time; 0 while running.
	ExecSec float64
	// QueueWaitSec is the time spent queued before nodes were granted
	// (0 while still queued).
	QueueWaitSec float64
	// PredNodeW is the per-node power the dispatcher predicted for this
	// job when it considered it for admission (0 if never considered).
	PredNodeW float64

	// AvgNodePowerW / MaxNodePowerW / EnergyPerNodeJ are the measured
	// per-node figures (conservative CPU+GPU estimate on Tioga).
	AvgNodePowerW  float64
	MaxNodePowerW  float64
	EnergyPerNodeJ float64
}

// Cluster is a running simulated system with the power modules loaded.
type Cluster struct {
	cfg Config
	c   *cluster.Cluster
	mon *powermon.Client
	pm  *powermgr.Client
}

// NewCluster builds and boots the cluster: nodes, the Flux instance, the
// job manager, and (per Config) the monitor and manager modules.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.System == "" {
		cfg.System = Lassen
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyNone
	}
	if cfg.Policy == PolicyStatic && cfg.StaticNodeCapW <= 0 {
		return nil, errors.New("fluxpower: PolicyStatic requires StaticNodeCapW")
	}
	inner, err := cluster.New(cluster.Config{
		System:              cfg.System,
		Nodes:               cfg.Nodes,
		Seed:                cfg.Seed,
		MonitorOverheadFrac: -1, // per-system default (§IV-B)
	})
	if err != nil {
		return nil, err
	}
	fc := &Cluster{cfg: cfg, c: inner}
	if !cfg.DisableMonitor {
		monCfg := powermon.Config{SampleInterval: cfg.MonitorSampleInterval}
		if err := inner.Inst.LoadModuleAll(func(rank int32) broker.Module {
			return powermon.New(monCfg)
		}); err != nil {
			inner.Close()
			return nil, err
		}
		fc.mon = powermon.NewClient(inner.Inst.Root())
	}
	if cfg.Policy != PolicyNone {
		mcfg := powermgr.Config{
			Policy:         cfg.Policy,
			GlobalCapW:     cfg.GlobalPowerCapW,
			StaticNodeCapW: cfg.StaticNodeCapW,
		}
		if err := inner.Inst.LoadModuleAll(func(rank int32) broker.Module {
			return powermgr.New(mcfg)
		}); err != nil {
			inner.Close()
			return nil, err
		}
		fc.pm = powermgr.NewClient(inner.Inst.Root())
	}
	return fc, nil
}

// Close stops the cluster's tick engine.
func (fc *Cluster) Close() { fc.c.Close() }

// Submit queues a job.
func (fc *Cluster) Submit(spec JobSpec) (JobID, error) {
	return fc.c.Submit(job.Spec{
		Name:        spec.Name,
		App:         spec.App,
		Nodes:       spec.Nodes,
		SizeFactor:  spec.SizeFactor,
		RepFactor:   spec.RepFactor,
		PowerPolicy: string(spec.PowerPolicy),
	})
}

// Run advances simulated time by d.
func (fc *Cluster) Run(d time.Duration) { fc.c.RunFor(d) }

// RunUntilIdle advances until all jobs have finished or limit elapses,
// reporting whether the system drained.
func (fc *Cluster) RunUntilIdle(limit time.Duration) bool {
	_, idle := fc.c.RunUntilIdle(limit)
	return idle
}

// NowSec returns the current simulated time in seconds.
func (fc *Cluster) NowSec() float64 { return fc.c.Now().Seconds() }

// Report returns a job's scheduling and power accounting.
func (fc *Cluster) Report(id JobID) (JobReport, error) {
	rec, err := fc.c.JM.Info(id)
	if err != nil {
		return JobReport{}, err
	}
	rep := JobReport{
		ID:           rec.ID,
		Name:         rec.Spec.Name,
		App:          rec.Spec.App,
		Nodes:        rec.Spec.Nodes,
		State:        rec.State,
		SubmitSec:    rec.SubmitSec,
		StartSec:     rec.StartSec,
		EndSec:       rec.EndSec,
		QueueWaitSec: rec.QueueWaitSec,
		PredNodeW:    rec.PredNodeW,
	}
	if st, ok := fc.c.Stats(id); ok {
		rep.ExecSec = st.ExecSec()
		rep.AvgNodePowerW = st.AvgNodePowerW
		rep.MaxNodePowerW = st.MaxNodePowerW
		rep.EnergyPerNodeJ = st.EnergyPerNodeJ
	}
	return rep, nil
}

// JobPower fetches a job's telemetry through the flux-power-monitor
// pipeline (root-agent aggregation over the TBON).
func (fc *Cluster) JobPower(id JobID) (powermon.JobPower, error) {
	if fc.mon == nil {
		return powermon.JobPower{}, errors.New("fluxpower: monitor not loaded")
	}
	return fc.mon.Query(id)
}

// JobPowerSummary reduces a job's telemetry to the per-job figures the
// paper's tables report.
func (fc *Cluster) JobPowerSummary(id JobID) (powermon.Summary, error) {
	jp, err := fc.JobPower(id)
	if err != nil {
		return powermon.Summary{}, err
	}
	return powermon.Summarize(jp)
}

// WriteJobCSV writes the job's power telemetry in the monitor client's
// CSV format (one row per node sample, completeness column included).
func (fc *Cluster) WriteJobCSV(w io.Writer, id JobID) error {
	jp, err := fc.JobPower(id)
	if err != nil {
		return err
	}
	return powermon.WriteCSV(w, jp)
}

// PowerAllocation is one job's current power grant under a dynamic policy.
type PowerAllocation struct {
	JobID    JobID
	Ranks    []int32
	PerNodeW float64
	JobW     float64
}

// PowerStatus reports the cluster-level manager's allocation table.
func (fc *Cluster) PowerStatus() (policy Policy, globalCapW float64, allocs []PowerAllocation, err error) {
	if fc.pm == nil {
		return PolicyNone, 0, nil, nil
	}
	p, g, as, err := fc.pm.Status()
	if err != nil {
		return "", 0, nil, err
	}
	out := make([]PowerAllocation, 0, len(as))
	for _, a := range as {
		out = append(out, PowerAllocation{
			JobID: a.JobID, Ranks: a.Ranks, PerNodeW: a.PerNodeW, JobW: a.JobLimitW,
		})
	}
	return p, g, out, nil
}

// SetGlobalPowerCap changes the cluster power bound at runtime (dynamic
// policies re-distribute immediately).
func (fc *Cluster) SetGlobalPowerCap(watts float64) error {
	if fc.pm == nil {
		return errors.New("fluxpower: no power manager loaded")
	}
	return fc.pm.SetGlobalCap(watts)
}

// NodePower describes one node's current caps and draw.
type NodePower struct {
	Rank     int32
	PowerW   float64
	NodeCapW float64 // 0 = uncapped
	GPUCapsW []float64
	LimitW   float64 // manager-assigned node-level limit, 0 = none
}

// NodeStatus inspects a node's power state.
func (fc *Cluster) NodeStatus(rank int32) (NodePower, error) {
	if rank < 0 || int(rank) >= fc.c.NodeCount() {
		return NodePower{}, fmt.Errorf("fluxpower: rank %d of %d", rank, fc.c.NodeCount())
	}
	n := fc.c.Node(rank)
	np := NodePower{
		Rank:     rank,
		PowerW:   n.Actual().NodeW,
		NodeCapW: n.NodeCap(),
	}
	for g := 0; g < n.Config().GPUs; g++ {
		np.GPUCapsW = append(np.GPUCapsW, n.EffectiveGPUCap(g))
	}
	if fc.pm != nil {
		if info, err := fc.pm.NodeInfo(rank); err == nil {
			if v, ok := info["limit_w"].(float64); ok {
				np.LimitW = v
			}
		}
	}
	return np, nil
}

// Jobs lists all job records, oldest first.
func (fc *Cluster) Jobs() ([]JobReport, error) {
	recs, err := fc.c.JM.List()
	if err != nil {
		return nil, err
	}
	out := make([]JobReport, 0, len(recs))
	for _, rec := range recs {
		rep, err := fc.Report(rec.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}
