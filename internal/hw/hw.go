// Package hw models the power-relevant hardware of the two systems the
// paper evaluates on: Lassen (IBM Power AC922 nodes) and Tioga (HPE Cray
// EX235a nodes).
//
// The real systems expose power through firmware: the IBM On-Chip
// Controller (OCC) reports node/CPU/memory/GPU sensors and OPAL enforces
// node-level power caps; NVML caps individual NVIDIA GPUs; on Tioga, AMD
// E-SMI/ROCm report CPU and OAM (2-GPU accelerator module) power through
// MSRs, with no node or memory sensor, and capping disabled for users.
// None of that hardware is available here, so this package reproduces the
// *semantics* of those dials — including the quirks the paper measures:
//
//   - IBM's conservative derived GPU cap under a node-level power cap
//     (Table III): setting a 1200 W node cap silently caps each GPU at
//     100 W even with the Power Shifting Ratio at 100%.
//   - NVML power caps intermittently failing at low node caps (Section V),
//     either retaining the previous cap or reverting to the maximum.
//   - Tioga's telemetry holes: no node or memory power, per-OAM rather
//     than per-GPU GPU power.
//
// A Node is driven by the simulation engine: each tick the application
// model declares a power *demand* per component, the node applies its caps
// to produce the *actual* power, and sensors report the actual power (plus
// optional measurement noise).
package hw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fluxpower/internal/simtime"
)

// Arch identifies a node microarchitecture/vendor stack.
type Arch string

// Supported architectures.
const (
	// ArchIBMPower9 models a Lassen AC922 node: 2 Power9 sockets, 4
	// NVIDIA Volta GPUs, OCC sensors, OPAL node capping, NVML GPU capping.
	ArchIBMPower9 Arch = "ibm_power9"
	// ArchAMDTrento models a Tioga EX235a node: 1 Trento socket, 4 MI250X
	// OAMs (8 GCD GPUs), E-SMI/ROCm telemetry, capping disabled for users.
	ArchAMDTrento Arch = "amd_trento"
)

// Errors returned by capping entry points.
var (
	ErrUnsupported   = errors.New("hw: operation not supported on this architecture")
	ErrOutOfRange    = errors.New("hw: power cap out of supported range")
	ErrNoSuchGPU     = errors.New("hw: GPU index out of range")
	ErrCapNotEnabled = errors.New("hw: power capping not enabled for users on this system")
)

// Config describes a node model. Use LassenConfig or TiogaConfig for the
// paper's systems; custom configs model other Variorum-supported
// architectures.
type Config struct {
	Arch Arch
	// Sockets is the number of CPU sockets.
	Sockets int
	// GPUs is the number of logical GPU devices (GCDs on Tioga).
	GPUs int
	// GPUsPerSensor groups GPUs into one reported power sensor: 1 on
	// Lassen (per-GPU), 2 on Tioga (per-OAM).
	GPUsPerSensor int

	// HasNodeSensor reports whether a direct node-level power sensor
	// exists (true on Lassen; false on Tioga, where node power must be
	// conservatively estimated as CPU+GPU).
	HasNodeSensor bool
	// HasMemSensor reports whether memory power is measurable.
	HasMemSensor bool

	// NodeCapSupported enables node-level power capping (OPAL on Lassen).
	NodeCapSupported bool
	// GPUCapSupported enables per-GPU power capping (NVML on Lassen).
	GPUCapSupported bool
	// SocketCapSupported enables per-socket CPU power capping (the OCC
	// exposes socket caps on Power9; disabled for users on Tioga like
	// every other dial there).
	SocketCapSupported bool

	// MaxNodePowerW is the node's maximum power (3050 W on Lassen).
	MaxNodePowerW float64
	// MinSoftNodeCapW is the smallest soft (not hardware-guaranteed) node
	// cap (500 W on Lassen).
	MinSoftNodeCapW float64

	// GPUMaxPowerW and GPUMinPowerW bound per-GPU power (300/100 W for
	// Volta; 280/90 W per GCD for MI250X halves).
	GPUMaxPowerW float64
	GPUMinPowerW float64

	// SocketMaxPowerW and SocketMinPowerW bound per-socket CPU caps.
	SocketMaxPowerW float64
	SocketMinPowerW float64

	// ReservedNonGPUW is the worst-case CPU+memory+uncore power the IBM
	// node-capping algorithm reserves before assigning the remainder to
	// GPUs. Reverse-engineered from Table III (see DerivedGPUCap).
	ReservedNonGPUW float64

	// Idle power levels per component. The paper assumes ~400 W node idle
	// on Lassen; that decomposes below.
	CPUIdleW   float64 // per socket
	MemIdleW   float64 // whole node
	GPUIdleW   float64 // per GPU
	UncoreW    float64 // fans, NICs, board — included in Lassen's node sensor
	PSRDefault int     // Power Shifting Ratio percentage (paper always 100)

	// SensorNoiseW adds uniform ±noise to sensor readings to model OCC
	// measurement error. Zero disables noise.
	SensorNoiseW float64

	// GPUCapFailureProb is the probability that an individual NVML GPU
	// cap write silently fails (Section V observed this intermittently at
	// low node caps). On failure the cap either keeps its previous value
	// or reverts to GPUMaxPowerW, 50/50.
	GPUCapFailureProb float64

	// GPUCapQuantumW models the device's cap resolution: a successful
	// GPU cap write is rounded to the nearest multiple of this value
	// before taking effect, so the cap read back differs from the
	// request by up to half a quantum (NVML takes milliwatts but boards
	// round to coarser steps). Zero disables rounding.
	GPUCapQuantumW float64
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.Sockets <= 0 {
		return fmt.Errorf("hw: config needs at least one socket, got %d", c.Sockets)
	}
	if c.GPUs < 0 {
		return fmt.Errorf("hw: negative GPU count %d", c.GPUs)
	}
	if c.GPUs > 0 && c.GPUsPerSensor <= 0 {
		return fmt.Errorf("hw: GPUsPerSensor must be positive when GPUs exist")
	}
	if c.GPUs > 0 && c.GPUs%c.GPUsPerSensor != 0 {
		return fmt.Errorf("hw: %d GPUs not divisible into sensors of %d", c.GPUs, c.GPUsPerSensor)
	}
	if c.GPUMinPowerW > c.GPUMaxPowerW {
		return fmt.Errorf("hw: GPU min power %v above max %v", c.GPUMinPowerW, c.GPUMaxPowerW)
	}
	if c.SocketCapSupported && c.SocketMinPowerW > c.SocketMaxPowerW {
		return fmt.Errorf("hw: socket min power %v above max %v", c.SocketMinPowerW, c.SocketMaxPowerW)
	}
	if c.GPUCapFailureProb < 0 || c.GPUCapFailureProb > 1 {
		return fmt.Errorf("hw: GPUCapFailureProb %v outside [0,1]", c.GPUCapFailureProb)
	}
	if c.GPUCapQuantumW < 0 {
		return fmt.Errorf("hw: negative GPUCapQuantumW %v", c.GPUCapQuantumW)
	}
	return nil
}

// LassenConfig returns the IBM Power AC922 node model. Constants follow
// the paper's Background section: 2 sockets / 44 cores, 4 Volta GPUs
// (300 W max, 100 W min), 3050 W max node power, 500 W minimum soft cap,
// 1000 W minimum hard cap, node/CPU/memory/GPU OCC sensors.
func LassenConfig() Config {
	return Config{
		Arch:               ArchIBMPower9,
		Sockets:            2,
		GPUs:               4,
		GPUsPerSensor:      1,
		HasNodeSensor:      true,
		HasMemSensor:       true,
		NodeCapSupported:   true,
		GPUCapSupported:    true,
		MaxNodePowerW:      3050,
		MinSoftNodeCapW:    500,
		GPUMaxPowerW:       300,
		GPUMinPowerW:       100,
		SocketCapSupported: true,
		SocketMaxPowerW:    350,
		SocketMinPowerW:    60,
		// Table III reverse-engineering: with PSR=100 the derived per-GPU
		// cap is clamp((nodeCap-937)/4, 100, 300): 1200→100 (clamped),
		// 1800→216, 1950→253, 3050→300 (clamped). IBM reserves ~937 W of
		// worst-case CPU+memory+uncore headroom before giving GPUs the
		// rest — exactly the conservatism the paper criticizes.
		ReservedNonGPUW: 937,
		CPUIdleW:        50,  // per socket
		MemIdleW:        60,  // whole node
		GPUIdleW:        35,  // per GPU
		UncoreW:         100, // node idle = 2*50+60+4*35+100 = 400 W, the paper's assumption (§IV-C)
		PSRDefault:      100,
	}
}

// GenericX86Config returns a third architecture preset — a dual-socket
// x86 node with RAPL socket capping and NVML GPU capping but *no* direct
// node-level power dial, the Intel/AMD case §II-C describes: "On Intel
// and AMD systems, while CPU-level and GPU-level power caps can be set
// directly, no direct node-level power capping is available in hardware.
// As a result, best effort power capping at the node level distributes
// power uniformly." It exists to exercise the vendor-neutral layer on a
// capability mix neither Lassen nor Tioga has.
func GenericX86Config() Config {
	return Config{
		Arch:               Arch("x86_rapl"),
		Sockets:            2,
		GPUs:               4,
		GPUsPerSensor:      1,
		HasNodeSensor:      false, // node power estimated from components
		HasMemSensor:       true,  // RAPL DRAM domain
		NodeCapSupported:   false, // the defining gap
		GPUCapSupported:    true,
		SocketCapSupported: true,
		GPUMaxPowerW:       300,
		GPUMinPowerW:       100,
		SocketMaxPowerW:    280,
		SocketMinPowerW:    75,
		CPUIdleW:           45,
		MemIdleW:           50,
		GPUIdleW:           30,
		UncoreW:            0, // invisible to RAPL; excluded from estimates
		PSRDefault:         100,
	}
}

// TiogaConfig returns the HPE Cray EX235a node model: single AMD Trento
// socket, 4 MI250X OAMs exposed as 8 GCD GPUs reported per-OAM (560 W max
// per OAM = 280 W per GCD), no node or memory sensor, and power capping
// present in hardware but not enabled for users (SetNodeCap/SetGPUCap
// return ErrCapNotEnabled).
func TiogaConfig() Config {
	return Config{
		Arch:             ArchAMDTrento,
		Sockets:          1,
		GPUs:             8,
		GPUsPerSensor:    2,
		HasNodeSensor:    false,
		HasMemSensor:     false,
		NodeCapSupported: false,
		GPUCapSupported:  false,
		MaxNodePowerW:    0, // "details on maximum or minimum node power limits are unavailable"
		GPUMaxPowerW:     280,
		GPUMinPowerW:     90,
		CPUIdleW:         90,
		MemIdleW:         0,
		GPUIdleW:         45,
		UncoreW:          0,
		PSRDefault:       100,
	}
}

// Demand is the power an application would draw this instant if no cap
// limited it. Component demands include the idle floor (an idle GPU
// demands GPUIdleW).
type Demand struct {
	CPUW []float64 // per socket
	MemW float64
	GPUW []float64 // per logical GPU
}

// Actual is the power actually drawn after cap enforcement.
type Actual struct {
	CPUW    []float64 // per socket
	MemW    float64
	GPUW    []float64 // per logical GPU
	UncoreW float64
	NodeW   float64 // CPU+mem+GPU+uncore

	// GPULimited flags GPUs whose draw was clipped by a cap this step —
	// the application model uses this to slow GPU progress down.
	GPULimited []bool
	// CPULimited flags sockets clipped by node-cap CPU throttling.
	CPULimited []bool
}

// Reading is one sensor sample, mirroring what Variorum's JSON telemetry
// exposes per architecture. Unsupported sensors are NaN-free: they are
// signalled by the Has* flags instead.
type Reading struct {
	Time simtime.Time

	HasNode bool
	NodeW   float64

	CPUW []float64 // per socket, always present

	HasMem bool
	MemW   float64

	// GPUW is per *sensor* (per GPU on Lassen, per OAM on Tioga).
	GPUW []float64
	// GPUsPerSensor echoes the grouping so consumers can interpret GPUW.
	GPUsPerSensor int
}

// TotalMeasuredW returns the node power as a consumer of this reading
// would best estimate it: the node sensor when present, otherwise the
// conservative CPU+GPU sum the paper uses for Tioga.
func (r Reading) TotalMeasuredW() float64 {
	if r.HasNode {
		return r.NodeW
	}
	total := 0.0
	for _, w := range r.CPUW {
		total += w
	}
	for _, w := range r.GPUW {
		total += w
	}
	return total
}

// Node is one simulated compute node. Not safe for concurrent use: each
// node is owned by the single-threaded simulation engine.
type Node struct {
	cfg  Config
	name string
	rng  *rand.Rand

	// idle is computed once; demand and actual own their slices, which
	// SetDemand and applyDemand overwrite in place — the per-tick path
	// allocates nothing.
	idle   Demand
	demand Demand
	actual Actual

	nodeCapW    float64   // 0 = uncapped
	gpuCapW     []float64 // requested NVML caps; 0 = unset
	gpuCapEff   []float64 // caps in effect after failure injection
	cpuCapW     []float64 // per-socket caps; 0 = unset
	psr         int
	capFailures int // count of injected NVML failures, for diagnostics
}

// NewNode builds a node from cfg. Seed feeds the node's private RNG
// (sensor noise, cap-failure injection); two nodes with the same seed and
// inputs behave identically.
func NewNode(name string, cfg Config, seed int64) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		name:      name,
		rng:       rand.New(rand.NewSource(seed)),
		gpuCapW:   make([]float64, cfg.GPUs),
		gpuCapEff: make([]float64, cfg.GPUs),
		cpuCapW:   make([]float64, cfg.Sockets),
		psr:       cfg.PSRDefault,
	}
	for i := range n.gpuCapEff {
		n.gpuCapEff[i] = cfg.GPUMaxPowerW
	}
	n.idle = Demand{
		CPUW: make([]float64, cfg.Sockets),
		MemW: cfg.MemIdleW,
		GPUW: make([]float64, cfg.GPUs),
	}
	for i := range n.idle.CPUW {
		n.idle.CPUW[i] = cfg.CPUIdleW
	}
	for i := range n.idle.GPUW {
		n.idle.GPUW[i] = cfg.GPUIdleW
	}
	n.demand = Demand{CPUW: make([]float64, cfg.Sockets), GPUW: make([]float64, cfg.GPUs)}
	n.actual = Actual{
		CPUW:       make([]float64, cfg.Sockets),
		GPUW:       make([]float64, cfg.GPUs),
		GPULimited: make([]bool, cfg.GPUs),
		CPULimited: make([]bool, cfg.Sockets),
	}
	n.SetIdle()
	return n, nil
}

// Name returns the node's hostname-like identifier.
func (n *Node) Name() string { return n.name }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// SetDemand installs the application's current power demand and
// immediately recomputes actual power. Missing slices are treated as idle;
// per-component demands below the idle floor are raised to it. d is
// copied: the caller keeps ownership of its slices.
func (n *Node) SetDemand(d Demand) {
	if d.CPUW == nil {
		d.CPUW = n.idle.CPUW
	}
	if d.GPUW == nil {
		d.GPUW = n.idle.GPUW
	}
	if len(d.CPUW) != n.cfg.Sockets {
		panic(fmt.Sprintf("hw: demand has %d sockets, node %q has %d", len(d.CPUW), n.name, n.cfg.Sockets))
	}
	if len(d.GPUW) != n.cfg.GPUs {
		panic(fmt.Sprintf("hw: demand has %d GPUs, node %q has %d", len(d.GPUW), n.name, n.cfg.GPUs))
	}
	for i, w := range d.CPUW {
		if w < n.idle.CPUW[i] {
			w = n.idle.CPUW[i]
		}
		n.demand.CPUW[i] = w
	}
	n.demand.MemW = d.MemW
	if d.MemW < n.idle.MemW {
		n.demand.MemW = n.idle.MemW
	}
	for i, w := range d.GPUW {
		if w < n.idle.GPUW[i] {
			w = n.idle.GPUW[i]
		}
		n.demand.GPUW[i] = w
	}
	n.applyDemand()
}

// SetIdle resets the node to idle demand (job exited).
func (n *Node) SetIdle() { n.SetDemand(n.idle) }

// DerivedGPUCap returns the per-GPU power cap the IBM node-capping
// algorithm derives from the current node-level cap (Table III). With no
// node cap, or on architectures without node capping, it returns the GPU
// maximum.
func (n *Node) DerivedGPUCap() float64 {
	if !n.cfg.NodeCapSupported || n.nodeCapW <= 0 || n.cfg.GPUs == 0 {
		return n.cfg.GPUMaxPowerW
	}
	// PSR scales how much of the post-reservation budget GPUs may take;
	// the paper always runs PSR=100 (all of it).
	share := (n.nodeCapW - n.cfg.ReservedNonGPUW) / float64(n.cfg.GPUs)
	share *= float64(n.psr) / 100
	if share < n.cfg.GPUMinPowerW {
		share = n.cfg.GPUMinPowerW
	}
	if share > n.cfg.GPUMaxPowerW {
		share = n.cfg.GPUMaxPowerW
	}
	return share
}

// SetNodeCap installs a node-level power cap (OPAL on Lassen). A zero cap
// removes the limit. Caps below the minimum soft cap or above node maximum
// return ErrOutOfRange. On architectures without node capping it returns
// ErrCapNotEnabled (Tioga: supported in hardware, not enabled for users).
func (n *Node) SetNodeCap(watts float64) error {
	if !n.cfg.NodeCapSupported {
		return ErrCapNotEnabled
	}
	if watts == 0 {
		n.nodeCapW = 0
		n.applyDemand()
		return nil
	}
	if watts < n.cfg.MinSoftNodeCapW || watts > n.cfg.MaxNodePowerW {
		return fmt.Errorf("%w: node cap %.0f W outside [%.0f, %.0f]",
			ErrOutOfRange, watts, n.cfg.MinSoftNodeCapW, n.cfg.MaxNodePowerW)
	}
	n.nodeCapW = watts
	n.applyDemand()
	return nil
}

// NodeCap returns the current node-level cap (0 = uncapped).
func (n *Node) NodeCap() float64 { return n.nodeCapW }

// SetPSR sets the Power Shifting Ratio percentage (0-100).
func (n *Node) SetPSR(psr int) error {
	if psr < 0 || psr > 100 {
		return fmt.Errorf("%w: PSR %d outside [0,100]", ErrOutOfRange, psr)
	}
	n.psr = psr
	n.applyDemand()
	return nil
}

// SetGPUCap installs an NVML-style per-GPU cap. A zero cap removes the
// request. Per Section V, writes can silently fail when
// GPUCapFailureProb > 0: the effective cap then keeps its previous value
// or reverts to the GPU maximum. The returned error is nil on silent
// failure — that is the point: the firmware reported success.
func (n *Node) SetGPUCap(gpu int, watts float64) error {
	if !n.cfg.GPUCapSupported {
		return ErrCapNotEnabled
	}
	if gpu < 0 || gpu >= n.cfg.GPUs {
		return fmt.Errorf("%w: gpu %d of %d", ErrNoSuchGPU, gpu, n.cfg.GPUs)
	}
	if watts == 0 {
		n.gpuCapW[gpu] = 0
		n.gpuCapEff[gpu] = n.cfg.GPUMaxPowerW
		n.applyDemand()
		return nil
	}
	if watts < n.cfg.GPUMinPowerW || watts > n.cfg.GPUMaxPowerW {
		return fmt.Errorf("%w: GPU cap %.0f W outside [%.0f, %.0f]",
			ErrOutOfRange, watts, n.cfg.GPUMinPowerW, n.cfg.GPUMaxPowerW)
	}
	n.gpuCapW[gpu] = watts
	if n.cfg.GPUCapFailureProb > 0 && n.rng.Float64() < n.cfg.GPUCapFailureProb {
		n.capFailures++
		if n.rng.Float64() < 0.5 {
			// Keep last effective cap: write dropped.
		} else {
			n.gpuCapEff[gpu] = n.cfg.GPUMaxPowerW // revert to max
		}
		n.applyDemand()
		return nil
	}
	n.gpuCapEff[gpu] = n.quantizeGPUCap(watts)
	n.applyDemand()
	return nil
}

// quantizeGPUCap rounds a cap to the device's resolution (GPUCapQuantumW).
func (n *Node) quantizeGPUCap(watts float64) float64 {
	q := n.cfg.GPUCapQuantumW
	if q <= 0 {
		return watts
	}
	return math.Round(watts/q) * q
}

// GPUCap returns the requested NVML cap for a GPU (0 = unset).
func (n *Node) GPUCap(gpu int) float64 { return n.gpuCapW[gpu] }

// ReportedGPUCap returns the NVML-level cap actually in effect on a GPU —
// what nvidia-smi would report. After a silent cap-write failure (§V)
// this differs from GPUCap (the requested value): it holds the previous
// cap or the vendor maximum.
func (n *Node) ReportedGPUCap(gpu int) float64 { return n.gpuCapEff[gpu] }

// EffectiveGPUCap returns the cap actually limiting a GPU: the minimum of
// the effective NVML cap and the OPAL derived cap.
func (n *Node) EffectiveGPUCap(gpu int) float64 {
	eff := n.gpuCapEff[gpu]
	if derived := n.DerivedGPUCap(); derived < eff {
		eff = derived
	}
	return eff
}

// CapFailures returns the number of injected silent NVML failures so far.
func (n *Node) CapFailures() int { return n.capFailures }

// SetSocketCap installs a per-socket CPU power cap (OCC socket capping).
// A zero cap removes the limit.
func (n *Node) SetSocketCap(socket int, watts float64) error {
	if !n.cfg.SocketCapSupported {
		return ErrCapNotEnabled
	}
	if socket < 0 || socket >= n.cfg.Sockets {
		return fmt.Errorf("%w: socket %d of %d", ErrOutOfRange, socket, n.cfg.Sockets)
	}
	if watts != 0 && (watts < n.cfg.SocketMinPowerW || watts > n.cfg.SocketMaxPowerW) {
		return fmt.Errorf("%w: socket cap %.0f W outside [%.0f, %.0f]",
			ErrOutOfRange, watts, n.cfg.SocketMinPowerW, n.cfg.SocketMaxPowerW)
	}
	n.cpuCapW[socket] = watts
	n.applyDemand()
	return nil
}

// SocketCap returns the requested cap on a socket (0 = unset).
func (n *Node) SocketCap(socket int) float64 { return n.cpuCapW[socket] }

// applyDemand computes actual power from demand and caps.
func (n *Node) applyDemand() {
	d := n.demand
	act := n.actual // reuses the node-owned slices; every element is rewritten below
	act.MemW = d.MemW
	act.UncoreW = n.cfg.UncoreW
	// GPUs first: per-GPU caps are hard limits.
	gpuTotal := 0.0
	for i := range act.GPUW {
		cap := n.EffectiveGPUCap(i)
		w := d.GPUW[i]
		act.GPULimited[i] = false
		if w > cap {
			w = cap
			act.GPULimited[i] = true
		}
		if w < n.cfg.GPUIdleW {
			w = n.cfg.GPUIdleW
		}
		act.GPUW[i] = w
		gpuTotal += w
	}
	// CPUs: under a node cap, whatever budget remains after GPUs, memory
	// and uncore is split evenly across sockets (OPAL throttles cores via
	// DVFS to hold the node cap).
	cpuBudget := -1.0 // unlimited
	if n.cfg.NodeCapSupported && n.nodeCapW > 0 {
		cpuBudget = n.nodeCapW - gpuTotal - act.MemW - act.UncoreW
	}
	for i := range act.CPUW {
		w := d.CPUW[i]
		act.CPULimited[i] = false
		if cap := n.cpuCapW[i]; cap > 0 && w > cap {
			w = cap
			act.CPULimited[i] = true
		}
		if cpuBudget >= 0 {
			share := cpuBudget / float64(n.cfg.Sockets)
			if share < n.cfg.CPUIdleW {
				share = n.cfg.CPUIdleW // cannot throttle below idle
			}
			if w > share {
				w = share
				act.CPULimited[i] = true
			}
		}
		act.CPUW[i] = w
	}
	total := act.MemW + act.UncoreW + gpuTotal
	for _, w := range act.CPUW {
		total += w
	}
	act.NodeW = total
	n.actual = act
}

// Actual returns the node's current actual power draw. Its slices are the
// node's own and are overwritten by the next demand or cap change: read
// them before that, or copy them.
func (n *Node) Actual() Actual { return n.actual }

// Read samples the node's sensors at the given instant, applying the
// configured measurement noise and the architecture's telemetry holes.
// The returned slices are freshly allocated; callers sampling on a hot
// path should hold a scratch Reading and use ReadInto instead.
func (n *Node) Read(now simtime.Time) Reading {
	var r Reading
	n.ReadInto(now, &r)
	return r
}

// ReadInto samples the node's sensors into r, reusing r's slice capacity
// when it fits. This is the allocation-free path for periodic samplers
// (the power manager reads every rank every interval): after the first
// call a steady-state sampler allocates nothing. The result is
// bit-identical to Read — same noise draws in the same order.
func (n *Node) ReadInto(now simtime.Time, r *Reading) {
	noise := func(w float64) float64 {
		if n.cfg.SensorNoiseW <= 0 || w == 0 {
			return w
		}
		v := w + (n.rng.Float64()*2-1)*n.cfg.SensorNoiseW
		if v < 0 {
			v = 0
		}
		return v
	}
	r.Time = now
	r.HasNode = n.cfg.HasNodeSensor
	r.HasMem = n.cfg.HasMemSensor
	r.GPUsPerSensor = n.cfg.GPUsPerSensor
	r.NodeW = 0
	r.MemW = 0
	if cap(r.CPUW) >= n.cfg.Sockets {
		r.CPUW = r.CPUW[:n.cfg.Sockets]
	} else {
		r.CPUW = make([]float64, n.cfg.Sockets)
	}
	for i, w := range n.actual.CPUW {
		r.CPUW[i] = noise(w)
	}
	if r.HasMem {
		r.MemW = noise(n.actual.MemW)
	}
	if n.cfg.GPUs > 0 {
		sensors := n.cfg.GPUs / n.cfg.GPUsPerSensor
		if cap(r.GPUW) >= sensors {
			r.GPUW = r.GPUW[:sensors]
			for i := range r.GPUW {
				r.GPUW[i] = 0
			}
		} else {
			r.GPUW = make([]float64, sensors)
		}
		for i, w := range n.actual.GPUW {
			r.GPUW[i/n.cfg.GPUsPerSensor] += w
		}
		for i := range r.GPUW {
			r.GPUW[i] = noise(r.GPUW[i])
		}
	} else {
		r.GPUW = nil
	}
	if r.HasNode {
		r.NodeW = noise(n.actual.NodeW)
	}
}

// IdlePowerW returns the node's total idle draw — the paper's static
// analysis assumes ~400 W idle per Lassen node.
func (n *Node) IdlePowerW() float64 {
	total := n.cfg.MemIdleW + n.cfg.UncoreW
	total += float64(n.cfg.Sockets) * n.cfg.CPUIdleW
	total += float64(n.cfg.GPUs) * n.cfg.GPUIdleW
	return total
}
