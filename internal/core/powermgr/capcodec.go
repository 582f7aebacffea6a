package powermgr

import (
	"encoding/json"
	"math"
	"strconv"

	"fluxpower/internal/flux/msg"
)

// The cap path's bodies — the setlimit request, its ack and the observe
// reply — are the manager's hottest payloads: every job start and finish
// pushes a setlimit to each of the job's ranks, and the controller
// observes every allocated rank each period. This file writes them by
// hand, byte for byte what json.Marshal writes, and reads them with
// strict parsers of exactly that canonical form. A parser declines
// anything else (other key orders, whitespace, escapes, unknown policy
// names) and encoding/json decodes it instead; it stays the reference,
// so the wire does not change.

// payload returns the request's body for the broker: its canonical
// bytes, or the struct itself when the fast encoder does not apply (a
// non-finite limit, a policy name that needs escaping), so that
// encoding/json encodes or rejects it as before.
func (r nodeLimitRequest) payload() any {
	if !finite(r.LimitW) || !plainPolicy(r.Policy) {
		return r
	}
	b := make([]byte, 0, 64)
	b = append(b, `{"jobid":`...)
	b = strconv.AppendUint(b, r.JobID, 10)
	b = append(b, `,"limit_w":`...)
	b = appendFloat(b, r.LimitW)
	b = append(b, `,"policy":"`...)
	b = append(b, r.Policy...)
	return json.RawMessage(append(b, `"}`...))
}

// payload returns the ack's body; see nodeLimitRequest.payload.
func (a setLimitAck) payload() any {
	if !finite(a.LimitW) {
		return a
	}
	b := make([]byte, 0, 48)
	b = append(b, `{"limit_w":`...)
	b = appendFloat(b, a.LimitW)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(a.Rank), 10)
	return json.RawMessage(append(b, '}'))
}

// payload returns the observe reply's body; see nodeLimitRequest.payload.
func (o observeResponse) payload() any {
	if !finite(o.NodeW) || !finite(o.LimitW) {
		return o
	}
	b := make([]byte, 0, 80)
	b = append(b, `{"rank":`...)
	b = strconv.AppendInt(b, int64(o.Rank), 10)
	b = append(b, `,"node_w":`...)
	b = appendFloat(b, o.NodeW)
	b = append(b, `,"limit_w":`...)
	b = appendFloat(b, o.LimitW)
	return json.RawMessage(append(b, '}'))
}

// parseNodeLimit decodes a setlimit body.
func parseNodeLimit(m *msg.Message) (nodeLimitRequest, error) {
	if r, ok := scanNodeLimit(m.Payload); ok {
		return r, nil
	}
	return unmarshalAs[nodeLimitRequest](m)
}

// parseObserve decodes an observe reply.
func parseObserve(m *msg.Message) (observeResponse, error) {
	if o, ok := scanObserve(m.Payload); ok {
		return o, nil
	}
	return unmarshalAs[observeResponse](m)
}

// scanNodeLimit is the fast setlimit parser; ok is false when b is not
// in canonical form.
func scanNodeLimit(b []byte) (r nodeLimitRequest, ok bool) {
	s := capScan{b: b, ok: true}
	s.lit(`{"jobid":`)
	r.JobID = s.uint()
	s.lit(`,"limit_w":`)
	r.LimitW = s.float()
	s.lit(`,"policy":`)
	r.Policy = s.policy()
	s.lit(`}`)
	return r, s.done()
}

// scanObserve is the fast observe-reply parser; ok is false when b is
// not in canonical form.
func scanObserve(b []byte) (o observeResponse, ok bool) {
	s := capScan{b: b, ok: true}
	s.lit(`{"rank":`)
	o.Rank = s.int32()
	s.lit(`,"node_w":`)
	o.NodeW = s.float()
	s.lit(`,"limit_w":`)
	o.LimitW = s.float()
	s.lit(`}`)
	return o, s.done()
}

// unmarshalAs is the fallback: encoding/json into a fresh T. Only this
// path moves a body to the heap.
func unmarshalAs[T any](m *msg.Message) (T, error) {
	var v T
	err := m.Unmarshal(&v)
	return v, err
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// plainPolicy reports whether json.Marshal writes p verbatim between its
// quotes: printable ASCII with nothing it escapes (", \ and, for HTML
// safety, <, > and &).
func plainPolicy(p Policy) bool {
	for i := 0; i < len(p); i++ {
		if c := p[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// round-tripping 'f' form, or 'e' form below 1e-6 and from 1e21 up, with
// a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// capScan reads a canonical body left to right. The first mismatch
// clears ok, after which every step is a no-op returning a zero value.
type capScan struct {
	b  []byte
	ok bool
}

// done reports whether the whole body matched.
func (s *capScan) done() bool { return s.ok && len(s.b) == 0 }

// lit consumes the literal l.
func (s *capScan) lit(l string) {
	if !s.ok || len(s.b) < len(l) || string(s.b[:len(l)]) != l {
		s.ok = false
		return
	}
	s.b = s.b[len(l):]
}

// digits consumes a run of decimal digits and returns its length.
func (s *capScan) digits() int {
	n := 0
	for n < len(s.b) && s.b[n] >= '0' && s.b[n] <= '9' {
		n++
	}
	s.b = s.b[n:]
	return n
}

// integer consumes a JSON integer, optionally negative, and returns its
// text: 0 or a digit run without a leading zero.
func (s *capScan) integer(signed bool) []byte {
	if !s.ok {
		return nil
	}
	start := s.b
	if signed && len(s.b) > 0 && s.b[0] == '-' {
		s.b = s.b[1:]
	}
	lead := len(s.b) > 0 && s.b[0] == '0'
	if n := s.digits(); n == 0 || (lead && n > 1) {
		s.ok = false
		return nil
	}
	return start[:len(start)-len(s.b)]
}

// uint consumes an unsigned integer, as json.Unmarshal into a uint64
// accepts it.
func (s *capScan) uint() uint64 {
	text := s.integer(false)
	if !s.ok {
		return 0
	}
	v, err := strconv.ParseUint(string(text), 10, 64)
	s.ok = err == nil
	return v
}

// int32 consumes a signed integer that fits an int32.
func (s *capScan) int32() int32 {
	text := s.integer(true)
	if !s.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(text), 10, 32)
	s.ok = err == nil
	return int32(v)
}

// float consumes a JSON number and parses it as json.Unmarshal into a
// float64 does; an out-of-range number declines.
func (s *capScan) float() float64 {
	start := s.b
	s.integer(true)
	if s.ok && len(s.b) > 0 && s.b[0] == '.' {
		s.b = s.b[1:]
		s.ok = s.digits() > 0
	}
	if s.ok && len(s.b) > 0 && (s.b[0] == 'e' || s.b[0] == 'E') {
		s.b = s.b[1:]
		if len(s.b) > 0 && (s.b[0] == '+' || s.b[0] == '-') {
			s.b = s.b[1:]
		}
		s.ok = s.digits() > 0
	}
	if !s.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(start[:len(start)-len(s.b)]), 64)
	s.ok = err == nil
	return v
}

// policy consumes a quoted policy name. Only the known names match, so
// the result is one of the constants and nothing is allocated.
func (s *capScan) policy() Policy {
	s.lit(`"`)
	if !s.ok {
		return ""
	}
	n := 0
	for n < len(s.b) && s.b[n] != '"' {
		n++
	}
	name := s.b[:n]
	for _, p := range []Policy{PolicyProportional, PolicyFPP, PolicyStatic, PolicyNone, ""} {
		if string(name) == string(p) {
			s.b = s.b[n:]
			s.lit(`"`)
			return p
		}
	}
	s.ok = false
	return ""
}
