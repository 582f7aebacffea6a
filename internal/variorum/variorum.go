// Package variorum reimplements, over the simulated hardware in
// internal/hw, the three Variorum entry points the paper's Flux
// integration uses (§II-C):
//
//   - variorum_get_node_power_json  → GetNodePowerJSON
//   - variorum_cap_best_effort_node_power_limit → CapBestEffortNodePowerLimit
//   - variorum_cap_each_gpu_power_limit → CapEachGPUPowerLimit
//
// Like the real library, the JSON telemetry document is architecture
// independent: absent sensors report -1 (Variorum's convention), GPU power
// is aggregated per socket, and an extension array carries per-device GPU
// power where the platform exposes it. Best-effort node capping maps to a
// direct OPAL node cap on IBM hardware; on architectures without a node
// dial it distributes the budget uniformly across sockets and GPUs; on
// systems where capping exists but is administratively disabled (Tioga's
// early-access state) it reports ErrCapNotEnabled.
package variorum

import (
	"encoding/json"
	"fmt"

	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
	"fluxpower/internal/stats"
)

// Unsupported is the sentinel Variorum reports for sensors an architecture
// does not expose.
const Unsupported = -1.0

// Errors surfaced by capping calls. ErrCapNotEnabled mirrors hw's.
var (
	ErrCapNotEnabled = hw.ErrCapNotEnabled
	ErrOutOfRange    = hw.ErrOutOfRange
)

// NodePower is the decoded form of the telemetry JSON document.
type NodePower struct {
	Hostname  string  `json:"hostname"`
	Timestamp float64 `json:"timestamp_sec"`
	Arch      string  `json:"arch"`

	// NodeWatts is the direct node sensor, or Unsupported (-1) where the
	// platform has none (Tioga).
	NodeWatts float64 `json:"power_node_watts"`

	// SocketCPUWatts holds per-socket CPU power (always available).
	SocketCPUWatts []float64 `json:"power_cpu_watts_socket"`
	// SocketMemWatts holds per-socket memory power, or nil when the
	// platform cannot measure memory (Tioga).
	SocketMemWatts []float64 `json:"power_mem_watts_socket,omitempty"`
	// SocketGPUWatts holds the per-socket sum of GPU power, Variorum's
	// portable representation.
	SocketGPUWatts []float64 `json:"power_gpu_watts_socket,omitempty"`

	// GPUWatts is the per-sensor GPU extension: one entry per GPU on
	// Lassen, one per OAM (2 GCDs) on Tioga.
	GPUWatts []float64 `json:"power_gpu_watts_device,omitempty"`
	// GPUsPerSensorEntry records how many logical GPUs each GPUWatts
	// entry covers.
	GPUsPerSensorEntry int `json:"gpus_per_sensor_entry,omitempty"`
}

// TotalWatts returns the best available node power estimate: the node
// sensor when present, otherwise the conservative CPU+GPU sum the paper
// uses on Tioga.
func (p NodePower) TotalWatts() float64 {
	if p.NodeWatts != Unsupported {
		return p.NodeWatts
	}
	total := 0.0
	for _, w := range p.SocketCPUWatts {
		total += w
	}
	for _, w := range p.GPUWatts {
		total += w
	}
	return total
}

// CPUWatts returns total CPU power across sockets.
func (p NodePower) CPUWatts() float64 {
	t := 0.0
	for _, w := range p.SocketCPUWatts {
		t += w
	}
	return t
}

// MemWatts returns total memory power, or Unsupported when unmeasurable.
func (p NodePower) MemWatts() float64 {
	if p.SocketMemWatts == nil {
		return Unsupported
	}
	t := 0.0
	for _, w := range p.SocketMemWatts {
		t += w
	}
	return t
}

// TotalGPUWatts returns total GPU power across devices.
func (p NodePower) TotalGPUWatts() float64 {
	t := 0.0
	for _, w := range p.GPUWatts {
		t += w
	}
	return t
}

// GetNodePower samples the node's sensors and returns the decoded
// document. This is the zero-serialization path the node agent uses on its
// own node.
//
// The document's slices may be retained by the caller (the durable
// store's unsealed head holds them; the monitor's ring and published
// sample events copy the values), so they need fresh memory every
// sample — but one backing array, not one allocation per slice: the
// monitor samples every rank every interval, and this is the hottest
// allocation site on that path.
func GetNodePower(n *hw.Node, now simtime.Time) NodePower {
	cfg := n.Config()
	sensors := 0
	if cfg.GPUs > 0 {
		sensors = cfg.GPUs / cfg.GPUsPerSensor
	}
	memN := 0
	if cfg.HasMemSensor {
		memN = cfg.Sockets
	}
	sgpuN := 0
	if sensors > 0 {
		sgpuN = cfg.Sockets
	}
	buf := make([]float64, cfg.Sockets+sensors+memN+sgpuN)
	var r hw.Reading
	r.CPUW = buf[:cfg.Sockets:cfg.Sockets]
	buf = buf[cfg.Sockets:]
	if sensors > 0 {
		r.GPUW = buf[:sensors:sensors]
		buf = buf[sensors:]
	}
	n.ReadInto(now, &r)

	p := NodePower{
		Hostname:           n.Name(),
		Timestamp:          now.Seconds(),
		Arch:               string(cfg.Arch),
		NodeWatts:          Unsupported,
		SocketCPUWatts:     r.CPUW,
		GPUWatts:           r.GPUW,
		GPUsPerSensorEntry: r.GPUsPerSensor,
	}
	if r.HasNode {
		p.NodeWatts = r.NodeW
	}
	if r.HasMem {
		// The AC922 memory sensor is per socket; split evenly, matching
		// Variorum's per-socket reporting.
		p.SocketMemWatts = buf[:memN:memN]
		buf = buf[memN:]
		for i := range p.SocketMemWatts {
			p.SocketMemWatts[i] = r.MemW / float64(cfg.Sockets)
		}
	}
	if len(r.GPUW) > 0 {
		// Portable per-socket GPU aggregate: GPUs are distributed evenly
		// across sockets on both modelled systems.
		p.SocketGPUWatts = buf[:sgpuN:sgpuN]
		perSocket := len(r.GPUW) / cfg.Sockets
		if perSocket == 0 {
			perSocket = len(r.GPUW)
		}
		for i, w := range r.GPUW {
			s := i / perSocket
			if s >= cfg.Sockets {
				s = cfg.Sockets - 1
			}
			p.SocketGPUWatts[s] += w
		}
	}
	return p
}

// GetNodePowerJSON samples the node's sensors and encodes the Variorum
// JSON document — the wire format stored by the monitor's circular buffer.
func GetNodePowerJSON(n *hw.Node, now simtime.Time) ([]byte, error) {
	return json.Marshal(GetNodePower(n, now))
}

// ParseNodePower decodes a telemetry document produced by
// GetNodePowerJSON.
func ParseNodePower(data []byte) (NodePower, error) {
	var p NodePower
	if err := json.Unmarshal(data, &p); err != nil {
		return NodePower{}, fmt.Errorf("variorum: bad telemetry document: %w", err)
	}
	return p, nil
}

// CapBestEffortNodePowerLimit requests that the node stay under watts.
// On IBM AC922 this is a direct OPAL node cap. On architectures with no
// node-level dial, best effort means distributing the budget uniformly
// across sockets and GPUs (the paper, §II-C). Platforms with capping
// disabled return ErrCapNotEnabled.
func CapBestEffortNodePowerLimit(n *hw.Node, watts float64) error {
	if watts <= 0 {
		return fmt.Errorf("%w: node power limit %.0f W", ErrOutOfRange, watts)
	}
	cfg := n.Config()
	if cfg.NodeCapSupported {
		return n.SetNodeCap(watts)
	}
	if !cfg.GPUCapSupported {
		return ErrCapNotEnabled
	}
	// Uniform distribution: reserve measured idle for memory/uncore, then
	// split the remainder evenly over sockets and GPUs by their maxima.
	gpuShare := watts / float64(cfg.GPUs+cfg.Sockets)
	var firstErr error
	for g := 0; g < cfg.GPUs; g++ {
		w := gpuShare
		if w > cfg.GPUMaxPowerW {
			w = cfg.GPUMaxPowerW
		}
		if w < cfg.GPUMinPowerW {
			w = cfg.GPUMinPowerW
		}
		if err := n.SetGPUCap(g, w); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// CapEachGPUPowerLimit sets the same power cap on every GPU of the node,
// mirroring variorum_cap_each_gpu_power_limit.
func CapEachGPUPowerLimit(n *hw.Node, watts float64) error {
	cfg := n.Config()
	if !cfg.GPUCapSupported {
		return ErrCapNotEnabled
	}
	for g := 0; g < cfg.GPUs; g++ {
		if err := n.SetGPUCap(g, watts); err != nil {
			return fmt.Errorf("variorum: capping gpu %d: %w", g, err)
		}
	}
	return nil
}

// CapEachSocketPowerLimit sets the same CPU power cap on every socket,
// mirroring variorum_cap_each_socket_power_limit. The paper's FPP policy
// is device-agnostic (§III-B2); this is the dial that extends it to
// socket-level capping.
func CapEachSocketPowerLimit(n *hw.Node, watts float64) error {
	cfg := n.Config()
	if !cfg.SocketCapSupported {
		return ErrCapNotEnabled
	}
	for s := 0; s < cfg.Sockets; s++ {
		if err := n.SetSocketCap(s, watts); err != nil {
			return fmt.Errorf("variorum: capping socket %d: %w", s, err)
		}
	}
	return nil
}

// CapSocketPowerLimit sets a cap on a single socket.
func CapSocketPowerLimit(n *hw.Node, socket int, watts float64) error {
	if !n.Config().SocketCapSupported {
		return ErrCapNotEnabled
	}
	return n.SetSocketCap(socket, watts)
}

// CapGPUPowerLimit sets a cap on a single GPU. The real Variorum API is
// uniform-per-node; FPP needs per-device granularity ("allowing for
// non-uniform power distribution among GPUs on the same node", §III-B2),
// so this extension exposes the NVML path directly.
func CapGPUPowerLimit(n *hw.Node, gpu int, watts float64) error {
	if !n.Config().GPUCapSupported {
		return ErrCapNotEnabled
	}
	return n.SetGPUCap(gpu, watts)
}

// Capabilities summarizes what a node's architecture supports; the power
// manager consults this before choosing an enforcement strategy.
type Capabilities struct {
	Arch          hw.Arch
	NodeSensor    bool
	MemSensor     bool
	NodeCap       bool
	GPUCap        bool
	SocketCap     bool
	GPUs          int
	GPUsPerSensor int
	GPUMaxW       float64
	GPUMinW       float64
	NodeMaxW      float64
	NodeMinSoftW  float64
}

// QueryCapabilities inspects a node.
func QueryCapabilities(n *hw.Node) Capabilities {
	cfg := n.Config()
	return Capabilities{
		Arch:          cfg.Arch,
		NodeSensor:    cfg.HasNodeSensor,
		MemSensor:     cfg.HasMemSensor,
		NodeCap:       cfg.NodeCapSupported,
		GPUCap:        cfg.GPUCapSupported,
		SocketCap:     cfg.SocketCapSupported,
		GPUs:          cfg.GPUs,
		GPUsPerSensor: cfg.GPUsPerSensor,
		GPUMaxW:       cfg.GPUMaxPowerW,
		GPUMinW:       cfg.GPUMinPowerW,
		NodeMaxW:      cfg.MaxNodePowerW,
		NodeMinSoftW:  cfg.MinSoftNodeCapW,
	}
}

// PowerAgg is a mergeable per-component summary of NodePower samples:
// count/sum/min/max for node, CPU, memory and GPU power. Memory samples
// reading Unsupported are excluded, so a merged aggregate reports memory
// only from nodes that can measure it (Mem.Count == 0 means nobody
// could). Two PowerAggs built over disjoint sample sets merge into the
// aggregate of the union — the property the monitor's in-network
// reduction and archive tiers are built on.
type PowerAgg struct {
	Node stats.Agg `json:"node"`
	CPU  stats.Agg `json:"cpu"`
	Mem  stats.Agg `json:"mem"`
	GPU  stats.Agg `json:"gpu"`
}

// Add folds one telemetry sample into the aggregate. Node power uses
// TotalWatts (the direct sensor, or the CPU+GPU estimate where absent).
func (a *PowerAgg) Add(p NodePower) {
	a.Node.Add(p.TotalWatts())
	a.CPU.Add(p.CPUWatts())
	if m := p.MemWatts(); m != Unsupported {
		a.Mem.Add(m)
	}
	a.GPU.Add(p.TotalGPUWatts())
}

// Merge folds another aggregate in, component-wise.
func (a *PowerAgg) Merge(o PowerAgg) {
	a.Node.Merge(o.Node)
	a.CPU.Merge(o.CPU)
	a.Mem.Merge(o.Mem)
	a.GPU.Merge(o.GPU)
}

// MemMeanW returns the mean memory power, or Unsupported when no sample
// in the aggregate could measure memory.
func (a PowerAgg) MemMeanW() float64 {
	if a.Mem.Count == 0 {
		return Unsupported
	}
	return a.Mem.Mean()
}

// Bucket is one downsampled archive bucket: the PowerAgg of every sample
// whose timestamp fell in [StartSec, EndSec), plus the trapezoid energy
// of the segments ending there. It is the record of the monitor's
// in-memory tiers, of the tsdb tier logs (its JSON is their on-disk
// format) and of the query engine's tier reads.
type Bucket struct {
	StartSec float64  `json:"start_sec"`
	EndSec   float64  `json:"end_sec"`
	Power    PowerAgg `json:"power"`
	EnergyJ  float64  `json:"energy_j"`
}

// MidSec is the bucket's midpoint, the timestamp job attribution and
// rate evaluation assign the whole bucket to.
func (b Bucket) MidSec() float64 { return (b.StartSec + b.EndSec) / 2 }

// Fold downsamples a sample stream into PeriodSec-long Buckets aligned
// to multiples of the period. A bucket finalizes when a sample lands
// past its end, and each inter-sample energy segment is charged to the
// bucket where it ends. The in-memory archive and the durable store
// both fold with it, which is what lets a recovered archive adopt
// persisted buckets without drift against the ones it would have
// computed live.
type Fold struct {
	PeriodSec float64
	cur       Bucket
	open      bool
	lastTS    float64 // previous sample, for trapezoid energy
	lastW     float64
}

// Push folds p into its bucket. When p opens a new bucket, the bucket it
// closes is returned with ok true.
func (f *Fold) Push(p NodePower) (done Bucket, ok bool) {
	start := float64(int64(p.Timestamp/f.PeriodSec)) * f.PeriodSec
	if f.open && start != f.cur.StartSec {
		done, ok = f.cur, true
		f.open = false
	}
	if !f.open {
		f.cur = Bucket{StartSec: start, EndSec: start + f.PeriodSec}
		f.open = true
	}
	w := p.TotalWatts()
	if f.lastTS > 0 && p.Timestamp > f.lastTS {
		f.cur.EnergyJ += (p.Timestamp - f.lastTS) * (w + f.lastW) / 2
	}
	f.cur.Power.Add(p)
	f.lastTS, f.lastW = p.Timestamp, w
	return done, ok
}

// Current returns the still-accumulating bucket; ok is false before the
// first sample.
func (f *Fold) Current() (b Bucket, ok bool) { return f.cur, f.open }
