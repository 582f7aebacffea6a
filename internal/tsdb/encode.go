package tsdb

import (
	"math"
	"math/bits"
)

// This file holds the two Gorilla-style bit codecs a block is built
// from (Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory Time
// Series Database", adapted for float timestamps):
//
//   - timestamps: delta-of-delta over the IEEE-754 *bit patterns*
//     interpreted as int64. Working on bit patterns keeps the codec pure
//     integer arithmetic, so every float — including NaN payloads and
//     infinities — round-trips byte-exactly, and a fixed sampling cadence
//     still yields dod == 0 almost everywhere (the bit-pattern delta of a
//     constant stride is constant within a binade and only changes at
//     power-of-two boundaries, a handful of times per trace).
//   - values: classic XOR float compression. Identical consecutive
//     values cost one bit; values sharing the predecessor's meaningful-bit
//     window cost '10' plus the window; anything else re-describes the
//     window with 5 leading-zero bits and a 6-bit length.
//
// Both decoders step one value at a time, hold no column, and treat a
// stream that ends early as errShortStream.

// putDoD appends one signed delta-of-delta using Gorilla's prefix
// buckets, widened with a 64-bit escape so arbitrary bit-pattern deltas
// stay lossless.
func putDoD(w *bitWriter, v int64) {
	switch {
	case v == 0:
		w.writeBits(0, 1)
	case -63 <= v && v <= 64:
		w.writeBits(0b10, 2)
		w.writeBits(uint64(v+63), 7)
	case -255 <= v && v <= 256:
		w.writeBits(0b110, 3)
		w.writeBits(uint64(v+255), 9)
	case -2047 <= v && v <= 2048:
		w.writeBits(0b1110, 4)
		w.writeBits(uint64(v+2047), 12)
	case -(1<<31)+1 <= v && v <= 1<<31:
		w.writeBits(0b11110, 5)
		w.writeBits(uint64(v+(1<<31)-1), 32)
	default:
		w.writeBits(0b11111, 5)
		w.writeBits(uint64(v), 64)
	}
}

// getDoD reads one delta-of-delta written by putDoD.
func getDoD(r *bitReader) (int64, error) {
	prefix := 0
	for prefix < 5 {
		b, err := r.readBits(1)
		if err != nil {
			return 0, err
		}
		if b == 0 {
			break
		}
		prefix++
	}
	switch prefix {
	case 0:
		return 0, nil
	case 1:
		u, err := r.readBits(7)
		return int64(u) - 63, err
	case 2:
		u, err := r.readBits(9)
		return int64(u) - 255, err
	case 3:
		u, err := r.readBits(12)
		return int64(u) - 2047, err
	case 4:
		u, err := r.readBits(32)
		return int64(u) - (1<<31 - 1), err
	default:
		u, err := r.readBits(64)
		return int64(u), err
	}
}

// encodeTimestamps packs ts as first-value-raw + delta-of-delta over
// bit patterns.
func encodeTimestamps(ts []float64) []byte {
	var w bitWriter
	var prev, prevDelta int64
	for i, t := range ts {
		b := int64(math.Float64bits(t))
		if i == 0 {
			w.writeBits(uint64(b), 64)
		} else {
			delta := b - prev
			putDoD(&w, delta-prevDelta)
			prevDelta = delta
		}
		prev = b
	}
	return w.bytes()
}

// tsDecoder steps a timestamp stream written by encodeTimestamps one
// value at a time, so a reader holds one timestamp, not a column.
type tsDecoder struct {
	r           bitReader
	started     bool
	prev, delta int64
}

// next returns the stream's next timestamp.
func (d *tsDecoder) next() (float64, error) {
	if !d.started {
		u, err := d.r.readBits(64)
		if err != nil {
			return 0, err
		}
		d.prev, d.started = int64(u), true
	} else {
		dod, err := getDoD(&d.r)
		if err != nil {
			return 0, err
		}
		d.delta += dod
		d.prev += d.delta
	}
	return math.Float64frombits(uint64(d.prev)), nil
}

// xorLeadingNone marks "no meaningful-bit window established yet".
const xorLeadingNone = 0xFF

// encodeValues packs one float channel with XOR compression.
func encodeValues(vals []float64) []byte {
	var w bitWriter
	var prev uint64
	leading, trailing := uint8(xorLeadingNone), uint8(0)
	for i, v := range vals {
		cur := math.Float64bits(v)
		if i == 0 {
			w.writeBits(cur, 64)
			prev = cur
			continue
		}
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.writeBits(0, 1)
			continue
		}
		lz := uint8(bits.LeadingZeros64(xor))
		if lz > 31 {
			lz = 31 // 5-bit field; extra leading zeros ride in the window
		}
		tz := uint8(bits.TrailingZeros64(xor))
		if leading != xorLeadingNone && lz >= leading && tz >= trailing {
			// Fits the previous window: '10' + the window's middle bits.
			sig := 64 - uint(leading) - uint(trailing)
			w.writeBits(0b10, 2)
			w.writeBits(xor>>trailing, sig)
			continue
		}
		leading, trailing = lz, tz
		sig := 64 - uint(lz) - uint(tz)
		w.writeBits(0b11, 2)
		w.writeBits(uint64(lz), 5)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>tz, sig)
	}
	return w.bytes()
}

// xorDecoder steps one XOR-compressed channel written by encodeValues
// one value at a time.
type xorDecoder struct {
	r                 bitReader
	started           bool
	prev              uint64
	leading, trailing uint
}

// next returns the channel's next value.
func (d *xorDecoder) next() (float64, error) {
	r := &d.r
	if !d.started {
		u, err := r.readBits(64)
		if err != nil {
			return 0, err
		}
		d.prev, d.started = u, true
		d.leading = xorLeadingNone
		return math.Float64frombits(d.prev), nil
	}
	ctrl, err := r.readBits(1)
	if err != nil {
		return 0, err
	}
	if ctrl == 0 {
		return math.Float64frombits(d.prev), nil
	}
	reuse, err := r.readBits(1)
	if err != nil {
		return 0, err
	}
	if reuse == 0 {
		// '10': reuse the established window.
		if d.leading == xorLeadingNone {
			return 0, errShortStream // window reuse before any window: hostile
		}
	} else {
		// '11': new window description.
		lz, err := r.readBits(5)
		if err != nil {
			return 0, err
		}
		sigm1, err := r.readBits(6)
		if err != nil {
			return 0, err
		}
		sig := uint(sigm1) + 1
		if uint(lz)+sig > 64 {
			return 0, errShortStream
		}
		d.leading = uint(lz)
		d.trailing = 64 - uint(lz) - sig
	}
	mid, err := r.readBits(64 - d.leading - d.trailing)
	if err != nil {
		return 0, err
	}
	d.prev ^= mid << d.trailing
	return math.Float64frombits(d.prev), nil
}
