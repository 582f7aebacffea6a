package fft

import (
	"errors"
	"math"
)

// SpectralDetector finds the strongest non-DC spectral peak. This is the
// detector FPP ships with: its FFT-GET-PERIOD procedure (Algorithm 1,
// lines 1-10) reads a change in the detected period as the current power
// cap stretching the application's phases.
type SpectralDetector struct {
	// MinProminence is the minimum ratio between the peak bin magnitude
	// and the mean non-DC magnitude for the signal to count as periodic.
	// Flat or white-noise signals stay below it. Zero selects the default.
	MinProminence float64
}

// DefaultMinProminence separates Quicksilver-style square waves (ratio
// >> 10) from sensor noise on flat signals (ratio ~2-3).
const DefaultMinProminence = 4.0

var errBadInterval = errors.New("fft: non-positive sampling interval")

// DetectPeriod returns the dominant period, in seconds, of the signal
// sampled at interval dtSeconds. ok is false when no periodic component
// stands out (flat signals like GEMM or LAMMPS).
func (d SpectralDetector) DetectPeriod(samples []float64, dtSeconds float64) (float64, bool, error) {
	if len(samples) == 0 {
		return 0, false, ErrEmpty
	}
	if dtSeconds <= 0 {
		return 0, false, errBadInterval
	}
	if len(samples) < 4 {
		return 0, false, nil // too short to resolve any period
	}
	prom := d.MinProminence
	if prom == 0 {
		prom = DefaultMinProminence
	}
	// Remove the mean: node power has a large DC component (idle power)
	// that would otherwise dominate bin 0's leakage.
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	centered := make([]float64, len(samples))
	allEqual := true
	for i, s := range samples {
		centered[i] = s - mean
		if s != samples[0] {
			allEqual = false
		}
	}
	if allEqual {
		return 0, false, nil
	}
	spec, err := FFTReal(centered)
	if err != nil {
		return 0, false, err
	}
	n := len(spec)
	// Only bins 1..n/2 are meaningful for a real signal.
	half := n / 2
	mags := Magnitudes(spec[:half+1])
	peakBin, peakMag, sum := 0, 0.0, 0.0
	for k := 1; k <= half; k++ {
		sum += mags[k]
		if mags[k] > peakMag {
			peakMag = mags[k]
			peakBin = k
		}
	}
	if peakBin == 0 || half < 1 {
		return 0, false, nil
	}
	meanMag := sum / float64(half)
	if meanMag == 0 || peakMag/meanMag < prom {
		return 0, false, nil
	}
	// Parabolic interpolation around the peak refines the frequency
	// estimate beyond bin resolution, which matters because FPP compares
	// successive period estimates against a 2-second convergence
	// threshold.
	kRef := float64(peakBin)
	if peakBin > 1 && peakBin < half {
		alpha, beta, gamma := mags[peakBin-1], mags[peakBin], mags[peakBin+1]
		denom := alpha - 2*beta + gamma
		if denom != 0 {
			delta := 0.5 * (alpha - gamma) / denom
			if delta > -0.5 && delta < 0.5 {
				kRef += delta
			}
		}
	}
	period := float64(n) * dtSeconds / kRef
	return period, true, nil
}

// AutocorrelationDetector estimates the period from the first significant
// peak of the autocorrelation function. It is kept as the ablation
// baseline for DESIGN.md decision 3 (spectral vs autocorrelation).
type AutocorrelationDetector struct {
	// MinCorrelation is the minimum normalized autocorrelation at the lag
	// for it to count as a period (0 selects the default 0.3).
	MinCorrelation float64
}

// DetectPeriod has SpectralDetector.DetectPeriod's contract, read from
// the first significant autocorrelation peak.
func (d AutocorrelationDetector) DetectPeriod(samples []float64, dtSeconds float64) (float64, bool, error) {
	if len(samples) == 0 {
		return 0, false, ErrEmpty
	}
	if dtSeconds <= 0 {
		return 0, false, errBadInterval
	}
	if len(samples) < 4 {
		return 0, false, nil
	}
	minCorr := d.MinCorrelation
	if minCorr == 0 {
		minCorr = 0.3
	}
	n := len(samples)
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(n)
	c0 := 0.0
	centered := make([]float64, n)
	for i, s := range samples {
		centered[i] = s - mean
		c0 += centered[i] * centered[i]
	}
	if c0 == 0 {
		return 0, false, nil
	}
	// Normalized autocorrelation via direct computation (n is bounded by
	// the FPP window: 30 s / sampling interval, small).
	maxLag := n / 2
	best, bestCorr := 0, 0.0
	prev := 1.0
	descending := false
	for lag := 1; lag <= maxLag; lag++ {
		c := 0.0
		for i := 0; i+lag < n; i++ {
			c += centered[i] * centered[i+lag]
		}
		corr := c / c0
		if corr < prev {
			descending = true
		}
		// First local maximum after the initial descent.
		if descending && corr >= minCorr && corr > bestCorr {
			best, bestCorr = lag, corr
		}
		prev = corr
	}
	if best == 0 {
		return 0, false, nil
	}
	return float64(best) * dtSeconds, true, nil
}

// SquareWave generates a square wave with the given period, duty cycle,
// low/high levels and additive deterministic pseudo-noise; used by tests
// and benchmarks to model Quicksilver-style periodic power draws.
func SquareWave(n int, dtSeconds, periodSeconds, duty, low, high, noiseAmp float64) []float64 {
	out := make([]float64, n)
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		t := math.Mod(float64(i)*dtSeconds, periodSeconds) / periodSeconds
		v := low
		if t < duty {
			v = high
		}
		if noiseAmp > 0 {
			seed = seed*6364136223846793005 + 1442695040888963407
			u := float64(seed>>11) / float64(1<<53) // [0,1)
			v += (u*2 - 1) * noiseAmp
		}
		out[i] = v
	}
	return out
}
