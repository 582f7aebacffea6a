// Package apps models the power and performance behaviour of the five
// applications the paper evaluates (§II-D): LAMMPS, GEMM (RajaPerf),
// Quicksilver, Laghos, and the Charm++ NQueens code.
//
// The real applications ran on real GPUs; here each is a calibrated
// power/performance model with three coupled parts:
//
//  1. A component-level power *demand* signature: per-socket CPU, memory
//     and per-GPU power as a function of the application's phase position.
//     Quicksilver's periodic Monte Carlo phases become a square wave;
//     GEMM's kernel loop a fast shallow oscillation; LAMMPS is flat.
//
//  2. A power-to-progress response. When a power cap clips the GPU below
//     its demand, progress slows. The response is piecewise, modelling
//     DVFS physics: near full power a cap mostly lowers voltage
//     (rate ≈ x^(1/3), x = actual/demand), while deep caps starve the
//     device (rate falls with a per-application steepness Beta). This
//     reproduces the paper's central observations — IBM's 100 W derived
//     GPU cap doubles GEMM's runtime (Table IV) while a 216-253 W cap
//     barely hurts, and an intermediate cap is energy-optimal (the
//     1800 W sweet spot of Table III).
//
//  3. Scaling rules: strong-scaled applications (LAMMPS) get faster and
//     draw less per-node power with more nodes; weak-scaled ones hold
//     both constant (Table II, Fig 2).
//
// Phase position advances with *progress*, not wall-clock: capping an
// application stretches its observable power period, which is precisely
// the signal the FPP policy feeds on (§III-B2).
package apps

import (
	"fmt"
	"math"
	"math/rand"

	"fluxpower/internal/hw"
)

// Scaling is an application's scaling discipline.
type Scaling string

// Scaling disciplines.
const (
	Strong Scaling = "strong"
	Weak   Scaling = "weak"
)

// Profile is the calibrated model of one application. All power figures
// are demands on the reference system (Lassen); Tioga overrides follow.
type Profile struct {
	Name    string
	Scaling Scaling

	// RefTimeSec is the execution time at full power on RefNodes Lassen
	// nodes with SizeFactor = RepFactor = 1.
	RefTimeSec float64
	RefNodes   int
	// StrongTimeExp shapes strong-scaling speedup:
	// time(n) = RefTime * (RefNodes/n)^StrongTimeExp. Ignored for weak.
	StrongTimeExp float64
	// StrongPowerExp shapes the per-GPU demand decline with node count:
	// demand(n) = demand(RefNodes) * (RefNodes/n)^StrongPowerExp,
	// clamped to the device range. Ignored for weak scaling.
	StrongPowerExp float64

	// Lassen component power demands.
	CPUActiveW float64 // per socket
	MemActiveW float64 // whole node
	GPUHighW   float64 // per GPU, high phase
	GPULowW    float64 // per GPU, low phase
	DutyHigh   float64 // fraction of the period spent in the high phase
	PeriodSec  float64 // phase period at full speed; 0 = always high phase
	// PeriodJitterFrac varies each cycle's length by ±frac (uniform).
	// Real phase lengths drift (Monte Carlo populations change, kernel
	// mixes vary); that drift is the signal FPP's period comparison
	// responds to. Large values make the power signal effectively
	// aperiodic to an FFT, as GEMM's is (§IV-D).
	PeriodJitterFrac float64

	// GPUWorkFrac is the fraction of the critical path on the GPU; CPU
	// throttling affects the remainder.
	GPUWorkFrac float64
	// Beta is the below-knee steepness of the power-to-progress response.
	// Large Beta = compute-bound (deep caps are devastating).
	Beta float64

	// Tioga overrides (8 GCDs/node, different compilers, HIP variants).
	// TiogaTimeFactor multiplies execution time at equal node count
	// (captures the doubled task count and, for Quicksilver, the HIP
	// anomaly of §IV-A). Zero disables the Tioga variant.
	TiogaTimeFactor float64
	TiogaCPUActiveW float64 // single Trento socket
	TiogaGPUHighW   float64 // per GCD
	TiogaGPULowW    float64 // per GCD

	// SignatureOverride replaces the synthesized power signature with a
	// measured series (site-profiled applications). Validated at catalog
	// load: Register rejects a profile whose override has non-monotonic
	// timestamps or negative watts with an error wrapping ErrBadSignature.
	SignatureOverride []SigPoint
}

// Validate reports profile inconsistencies.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("apps: profile without name")
	}
	if p.RefTimeSec <= 0 || p.RefNodes <= 0 {
		return fmt.Errorf("apps: %s: reference point missing", p.Name)
	}
	if p.Scaling != Strong && p.Scaling != Weak {
		return fmt.Errorf("apps: %s: unknown scaling %q", p.Name, p.Scaling)
	}
	if p.DutyHigh < 0 || p.DutyHigh > 1 {
		return fmt.Errorf("apps: %s: duty %v outside [0,1]", p.Name, p.DutyHigh)
	}
	if p.GPULowW > p.GPUHighW {
		return fmt.Errorf("apps: %s: low phase above high phase", p.Name)
	}
	if p.GPUWorkFrac < 0 || p.GPUWorkFrac > 1 {
		return fmt.Errorf("apps: %s: GPU work fraction %v outside [0,1]", p.Name, p.GPUWorkFrac)
	}
	if p.PeriodJitterFrac < 0 || p.PeriodJitterFrac >= 1 {
		return fmt.Errorf("apps: %s: period jitter %v outside [0,1)", p.Name, p.PeriodJitterFrac)
	}
	if p.SignatureOverride != nil {
		if err := ValidateSignature(p.SignatureOverride); err != nil {
			return fmt.Errorf("apps: %s: %w", p.Name, err)
		}
	}
	return nil
}

// DVFS response constants: above the knee a power cap is absorbed by
// voltage/frequency scaling (cube-root law); below it the device starves.
// Volta-class GPUs sustain DVFS down to roughly half of TDP (300 W → ~150 W)
// before clock floors and memory stalls take over.
const (
	rateKnee = 0.5
)

var kneeRate = math.Cbrt(rateKnee)

// ResponseRate returns the progress rate (0..1] of a device receiving
// actual power when it demands demand. Beta sets below-knee steepness.
func ResponseRate(actual, demand, beta float64) float64 {
	if demand <= 0 || actual >= demand {
		return 1
	}
	x := actual / demand
	if x <= 0 {
		return 0
	}
	if x >= rateKnee {
		return math.Cbrt(x)
	}
	return kneeRate * math.Pow(x/rateKnee, beta)
}

// Instance is one job's live model: the per-node power demand source and
// progress integrator the cluster engine drives every tick.
type Instance struct {
	profile Profile
	arch    hw.Arch
	nodes   int

	totalWork  float64 // equivalent-seconds of work at full rate
	progress   float64
	phaseClock float64 // advances with progress; stretches under caps

	// Cycle tracking: cycleStart is the phase-clock instant the current
	// cycle began; cycleLen is its jittered length.
	cycleStart float64
	cycleLen   float64
	rng        *rand.Rand

	// overheadFrac is an externally injected slowdown (power-monitor
	// sampling overhead, OS jitter): progress accrues at rate*(1-o).
	overheadFrac float64
}

// NewInstance builds the model for one job. The seed drives the model's
// per-cycle phase jitter; same seed, same run.
//
// sizeFactor and repFactor scale total work multiplicatively (Table III
// runs Quicksilver at 10x size and GEMM at double repetitions).
func NewInstance(p Profile, arch hw.Arch, nodes int, sizeFactor, repFactor float64, seed int64) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("apps: %s: %d nodes", p.Name, nodes)
	}
	if sizeFactor <= 0 {
		sizeFactor = 1
	}
	if repFactor <= 0 {
		repFactor = 1
	}
	if arch == hw.ArchAMDTrento && p.TiogaTimeFactor == 0 {
		return nil, fmt.Errorf("apps: %s has no Tioga variant", p.Name)
	}
	inst := &Instance{profile: p, arch: arch, nodes: nodes, rng: rand.New(rand.NewSource(seed))}
	inst.totalWork = inst.expectedTime() * sizeFactor * repFactor
	inst.cycleLen = inst.drawCycleLen()
	return inst, nil
}

// drawCycleLen samples the next cycle's length.
func (in *Instance) drawCycleLen() float64 {
	p := in.profile.PeriodSec
	if p <= 0 {
		return 0
	}
	j := in.profile.PeriodJitterFrac
	if j <= 0 {
		return p
	}
	return p * (1 + (in.rng.Float64()*2-1)*j)
}

// expectedTime is the full-power runtime for this node count and system,
// before size/rep scaling.
func (in *Instance) expectedTime() float64 {
	t := in.profile.RefTimeSec
	if in.profile.Scaling == Strong {
		t *= math.Pow(float64(in.profile.RefNodes)/float64(in.nodes), in.profile.StrongTimeExp)
	}
	if in.arch == hw.ArchAMDTrento {
		t *= in.profile.TiogaTimeFactor
	}
	return t
}

// ExpectedTimeSec returns the job's full-power runtime including size and
// repetition scaling.
func (in *Instance) ExpectedTimeSec() float64 { return in.totalWork }

// Progress returns completed work in equivalent seconds.
func (in *Instance) Progress() float64 { return in.progress }

// Done reports whether the job has completed its work.
func (in *Instance) Done() bool { return in.progress >= in.totalWork-1e-9 }

// SetOverhead installs a fractional slowdown (0.004 = 0.4%). The cluster
// engine uses this for power-monitor sampling overhead and OS jitter.
func (in *Instance) SetOverhead(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 0.9 {
		frac = 0.9
	}
	in.overheadFrac = frac
}

// inHighPhase reports the current phase, advancing cycle bookkeeping as
// the phase clock crosses cycle boundaries.
func (in *Instance) inHighPhase() bool {
	if in.profile.PeriodSec <= 0 || in.cycleLen <= 0 {
		return true
	}
	for in.phaseClock >= in.cycleStart+in.cycleLen {
		in.cycleStart += in.cycleLen
		in.cycleLen = in.drawCycleLen()
	}
	pos := (in.phaseClock - in.cycleStart) / in.cycleLen
	return pos < in.profile.DutyHigh
}

// gpuDemandPerDevice returns the current per-GPU demand for the node's
// architecture, applying strong-scaling power decline.
func (in *Instance) gpuDemandPerDevice(cfg hw.Config) float64 {
	var high, low float64
	switch in.arch {
	case hw.ArchAMDTrento:
		high, low = in.profile.TiogaGPUHighW, in.profile.TiogaGPULowW
	default:
		high, low = in.profile.GPUHighW, in.profile.GPULowW
	}
	w := low
	if in.inHighPhase() {
		w = high
	}
	if in.profile.Scaling == Strong {
		f := math.Pow(float64(in.profile.RefNodes)/float64(in.nodes), in.profile.StrongPowerExp)
		w *= f
	}
	if w > cfg.GPUMaxPowerW {
		w = cfg.GPUMaxPowerW
	}
	if w < cfg.GPUIdleW {
		w = cfg.GPUIdleW
	}
	return w
}

// cpuDemandPerSocket returns the per-socket CPU demand for the node's
// architecture.
func (in *Instance) cpuDemandPerSocket() float64 {
	if in.arch == hw.ArchAMDTrento {
		return in.profile.TiogaCPUActiveW
	}
	return in.profile.CPUActiveW
}

// Demand computes the node-level power demand for the current phase. All
// nodes of a job run in phase (bulk-synchronous), so the demand is the
// same for every node of the job.
func (in *Instance) Demand(cfg hw.Config) hw.Demand {
	d := hw.Demand{
		CPUW: make([]float64, cfg.Sockets),
		MemW: in.profile.MemActiveW,
		GPUW: make([]float64, cfg.GPUs),
	}
	cpu := in.cpuDemandPerSocket()
	for i := range d.CPUW {
		d.CPUW[i] = cpu
	}
	gpu := in.gpuDemandPerDevice(cfg)
	for i := range d.GPUW {
		d.GPUW[i] = gpu
	}
	return d
}

// NodeRate converts a node's actual power draw into a progress rate in
// (0,1]: the weighted blend of GPU and CPU response to capping.
func (in *Instance) NodeRate(cfg hw.Config, demand hw.Demand, actual hw.Actual) float64 {
	gpuRate := 1.0
	if cfg.GPUs > 0 && in.profile.GPUWorkFrac > 0 {
		sum := 0.0
		for i := range actual.GPUW {
			sum += ResponseRate(actual.GPUW[i], demand.GPUW[i], in.profile.Beta)
		}
		gpuRate = sum / float64(cfg.GPUs)
	}
	cpuRate := 1.0
	for i := range actual.CPUW {
		// CPU throttling responds linearly (DVFS on cores).
		r := 1.0
		if demand.CPUW[i] > 0 && actual.CPUW[i] < demand.CPUW[i] {
			r = actual.CPUW[i] / demand.CPUW[i]
		}
		if r < cpuRate {
			cpuRate = r
		}
	}
	f := in.profile.GPUWorkFrac
	rate := f*gpuRate + (1-f)*cpuRate
	if rate <= 0 {
		rate = 1e-6
	}
	if rate > 1 {
		rate = 1
	}
	return rate
}

// Advance integrates dt seconds of wall-clock at the given job-wide rate
// (the minimum across nodes — bulk-synchronous applications progress at
// the pace of their slowest node). The phase clock advances with progress
// so power caps stretch the observable period.
func (in *Instance) Advance(dtSec, rate float64) {
	if dtSec < 0 {
		panic("apps: negative dt")
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	effective := rate * (1 - in.overheadFrac)
	in.progress += dtSec * effective
	in.phaseClock += dtSec * effective
}

// RemainingSec estimates remaining wall-clock at the given rate.
func (in *Instance) RemainingSec(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	rem := in.totalWork - in.progress
	if rem < 0 {
		rem = 0
	}
	return rem / rate
}
