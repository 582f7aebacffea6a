// Package fpp implements the paper's FFT-based dynamic power policy
// (FPP, Algorithm 1) as a per-GPU feedback controller.
//
// The idea: applications with periodic phase behaviour (Quicksilver's
// Monte Carlo cycles) expose their health through the *period* of their
// power signal. If lowering a GPU's power cap leaves the period unchanged,
// the application was not using that headroom — keep or reduce the cap.
// If the period stretches, the cap is hurting — give power back, in steps
// sized by how much the period moved. Convergence is declared when two
// successive period estimates agree within 2 seconds.
//
// The controller is device-agnostic (§III-B2): it reads a power sample
// stream and emits cap values; the node-level manager wires it to a GPU,
// but socket- or memory-level dials would work identically.
package fpp

import (
	"fmt"

	"fluxpower/internal/fft"
)

// Algorithm 1's fixed constants: the paper's values for an NVIDIA
// Volta-class GPU.
const (
	// convergeThSec: |ΔT| at or below this means converged (line 12).
	convergeThSec = 2
	// changeThSec: |ΔT| below this (with shrinking period) triggers a
	// power reduction (line 13).
	changeThSec = 5
	// pReduceW is the reduction step (line 14).
	pReduceW = 50
	// CapIntervalSec is powercap_time: how often caps are re-evaluated
	// (line 32). The node-level manager runs Interval on this period.
	CapIntervalSec = 90
	// detectorProminence makes the period detector a raw spectral argmax.
	// Like the paper's FINDPERIOD it always reports the strongest peak,
	// so aperiodic signals yield unstable estimates — which is exactly
	// what makes FPP hand power back to GEMM ("sees that the period
	// doubles and instantly gives back the power", §IV-D).
	detectorProminence = 1
)

// Config carries the device-specific parameters of Algorithm 1. Zero
// fields take the paper's values for an NVIDIA Volta-class GPU.
type Config struct {
	// MaxGPUCapW is the vendor maximum (line 35).
	MaxGPUCapW float64
	// MinGPUCapW is the vendor minimum (100 W for Volta).
	MinGPUCapW float64
	// SampleIntervalSec is the telemetry sampling period feeding the FFT.
	SampleIntervalSec float64
	// PersistConvergence selects between the two readings of Algorithm 1.
	// The paper's prose says "power adjustments cease when the delta
	// falls below the convergence threshold", but the listing initializes
	// F_converge to False on every GET-GPU-CAP call (line 15), so the
	// flag never actually latches and the controller keeps exploring —
	// which is the behaviour the paper *measured* (GEMM repeatedly
	// reducing and restoring power). Default false follows the listing;
	// true follows the prose and freezes the cap after convergence.
	PersistConvergence bool
}

func (c Config) withDefaults() Config {
	if c.MaxGPUCapW == 0 {
		c.MaxGPUCapW = 300
	}
	if c.MinGPUCapW == 0 {
		c.MinGPUCapW = 100
	}
	if c.SampleIntervalSec == 0 {
		c.SampleIntervalSec = 2
	}
	return c
}

// Controller runs Algorithm 1 for one device.
type Controller struct {
	cfg Config

	gpuPowerLim float64 // derived max cap from the node-level limit (line 36)
	capCur      float64
	capPrev     float64
	hasPrev     bool
	tPrev       float64
	hasTPrev    bool
	converged   bool

	buf []float64 // power samples since the last interval (line 42 resets)
}

// New creates a controller. gpuPowerLim is the maximum cap derived from
// the node-level power limit; the starting cap is
// min(MaxGPUCap, gpuPowerLim) (line 37).
func New(cfg Config, gpuPowerLim float64) (*Controller, error) {
	cfg = cfg.withDefaults()
	if gpuPowerLim <= 0 {
		return nil, fmt.Errorf("fpp: non-positive GPU power limit %v", gpuPowerLim)
	}
	c := &Controller{cfg: cfg, gpuPowerLim: gpuPowerLim}
	c.capCur = c.clamp(gpuPowerLim)
	return c, nil
}

// clamp bounds a cap to [MinGPUCap, min(MaxGPUCap, gpuPowerLim)].
func (c *Controller) clamp(w float64) float64 {
	hi := c.cfg.MaxGPUCapW
	if c.gpuPowerLim < hi {
		hi = c.gpuPowerLim
	}
	if w > hi {
		w = hi
	}
	if w < c.cfg.MinGPUCapW {
		w = c.cfg.MinGPUCapW
	}
	return w
}

// Observe appends one power sample (FFT-GET-PERIOD's STOREPOWERDATA).
func (c *Controller) Observe(powerW float64) {
	c.buf = append(c.buf, powerW)
}

// Cap returns the cap currently in force.
func (c *Controller) Cap() float64 { return c.capCur }

// Converged reports whether the controller has stopped adjusting.
func (c *Controller) Converged() bool { return c.converged }

// SetLimit installs a new node-derived GPU power limit (a re-allocation
// happened) and restarts the search.
func (c *Controller) SetLimit(gpuPowerLim float64) {
	if gpuPowerLim <= 0 {
		return
	}
	c.gpuPowerLim = gpuPowerLim
	c.capCur = c.clamp(gpuPowerLim)
	c.hasPrev = false
	c.hasTPrev = false
	c.converged = false
	c.buf = nil
}

// Interval executes one pass of the MAIN loop (lines 38-43): estimate the
// period from the buffered samples, compute the next cap, reset the
// buffer. It returns the cap to enforce and whether it changed.
func (c *Controller) Interval() (capW float64, changed bool) {
	detector := fft.SpectralDetector{MinProminence: detectorProminence}
	tCur, ok, err := detector.DetectPeriod(c.buf, c.cfg.SampleIntervalSec)
	c.buf = c.buf[:0] // line 42: reset FFT buffer
	if err != nil || !ok {
		// No estimate (constant or near-empty signal): treat the period
		// as unchanged, which drives the algorithm toward convergence.
		tCur = c.tPrev
	}
	next := c.nextCap(tCur)
	c.capPrev = c.capCur
	c.hasPrev = true
	c.tPrev = tCur
	c.hasTPrev = true
	next = c.clamp(next)
	changed = next != c.capCur
	c.capCur = next
	return c.capCur, changed
}

// nextCap is GET-GPU-CAP (lines 11-30).
func (c *Controller) nextCap(tCur float64) float64 {
	// Line 19: the very first pass only records state. F_converge blocks
	// further adjustment only under PersistConvergence (see Config).
	if !c.hasPrev || (c.cfg.PersistConvergence && c.converged) {
		return c.capCur
	}
	delta := tCur - c.tPrev
	abs := delta
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs <= convergeThSec: // line 22
		c.converged = true
		return c.capCur
	case delta < 0 && abs < changeThSec: // line 25
		c.converged = c.cfg.PersistConvergence && c.converged
		return c.capCur - pReduceW
	default: // line 28
		c.converged = c.cfg.PersistConvergence && c.converged
		// The increase steps, indexed by |ΔT|/5 capped at 2 (line 16).
		idx := int(abs / 5)
		if idx > 2 {
			idx = 2
		}
		return c.capCur + [3]float64{10, 15, 25}[idx]
	}
}
