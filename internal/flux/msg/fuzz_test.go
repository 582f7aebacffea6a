package msg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// frame length-prefixes a hand-built body, for seeding the fuzzer with
// interesting wire bytes without round-tripping through Encode.
func frame(body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	return out
}

// FuzzDecode feeds arbitrary bytes to the TCP frame decoder. Two
// properties: Decode never panics (it faces attacker- or chaos-corrupted
// sockets), and any frame it accepts survives an encode/decode round
// trip with every field intact.
func FuzzDecode(f *testing.F) {
	// Valid frames of each message type.
	req, _ := NewRequest("power-monitor.collect", 3, 0, 7,
		map[string]float64{"start_sec": 0, "end_sec": 12.5})
	f.Add(encodeToBytesF(f, req))
	resp, _ := NewResponse(req, 3, map[string]any{"rank": 3, "samples": []int{1, 2, 3}})
	f.Add(encodeToBytesF(f, resp))
	f.Add(encodeToBytesF(f, NewErrorResponse(req, 3, EHOSTUNREACH, "no route past rank 1")))
	ev, _ := NewEvent("job.start", 0, 42, map[string]uint64{"id": 9})
	f.Add(encodeToBytesF(f, ev))
	f.Add(encodeToBytesF(f, &Message{Type: TypeControl, Topic: "broker.hello", Sender: 5}))

	// Hostile shapes: truncated header, zero length, huge claimed length
	// with a tiny body, length/body mismatch, non-JSON body, JSON body
	// with a bad type, deeply escaped payload.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'})
	f.Add([]byte{0x04, 0x00, 0x00, 0x00, '{', '}'}) // 64 MiB claimed, 2 sent
	f.Add(frame([]byte(`{}`)))
	f.Add(frame([]byte(`not json`)))
	f.Add(frame([]byte(`{"type":99,"topic":"x"}`)))
	f.Add(frame([]byte(`{"type":1,"topic":"a.b","payload":"esc\""}`)))
	f.Add(append(frame([]byte(`{"type":3,"topic":"e","seq":1}`)), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is not panicking
		}
		if m.Type < TypeRequest || m.Type > TypeControl {
			t.Fatalf("decoder accepted invalid type %d", m.Type)
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("accepted message does not re-encode: %v\nmessage: %+v", err, m)
		}
		m2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v\nmessage: %+v", err, m)
		}
		// Payload bytes may legally differ (json.Marshal compacts and
		// escapes RawMessage), so compare payloads by JSON value and the
		// rest of the struct exactly.
		if !jsonEqual(m.Payload, m2.Payload) {
			t.Fatalf("payload changed across round trip:\n%q\n%q", m.Payload, m2.Payload)
		}
		m.Payload, m2.Payload = nil, nil
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("message changed across round trip:\n%+v\n%+v", m, m2)
		}
	})
}

// encodeToBytesF is encodeToBytes for the seed-registration phase.
func encodeToBytesF(f *testing.F, m *Message) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		f.Fatalf("encode seed: %v", err)
	}
	return buf.Bytes()
}

// jsonEqual compares two raw payloads as JSON values; nil/absent payloads
// are equal to each other.
func jsonEqual(a, b json.RawMessage) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == 0 && len(b) == 0
	}
	var va, vb any
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return false
	}
	return reflect.DeepEqual(va, vb)
}

// TestDecodeHostileLength pins the prealloc hardening: a header claiming
// the maximum frame size backed by a few bytes must fail with a short
// frame error — and must not allocate the claimed 64 MB up front (the
// fuzzer found the original version OOM-prone under exactly this input).
func TestDecodeHostileLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize)
	in := append(hdr[:], []byte(`{"type":1}`)...)
	if _, err := Decode(bytes.NewReader(in)); err == nil {
		t.Fatal("truncated 64MB frame decoded")
	}

	// A genuinely large frame (above maxPrealloc) still decodes.
	big, err := NewEvent("bulk.data", 0, 1, map[string]string{
		"blob": string(bytes.Repeat([]byte{'a'}, 2*maxPrealloc)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := big.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("large frame: %v", err)
	}
	if !jsonEqual(big.Payload, got.Payload) {
		t.Fatal("large payload mangled")
	}
}

// validateTopicSplit is the original strings.Split implementation of
// ValidateTopic, kept as the oracle for FuzzValidateTopic.
func validateTopicSplit(topic string) error {
	if topic == "" {
		return errors.New("msg: empty topic")
	}
	if strings.HasPrefix(topic, ".") || strings.HasSuffix(topic, ".") {
		return fmt.Errorf("msg: topic %q has leading/trailing dot", topic)
	}
	for _, part := range strings.Split(topic, ".") {
		if part == "" {
			return fmt.Errorf("msg: topic %q has empty component", topic)
		}
	}
	return nil
}

// FuzzValidateTopic checks that ValidateTopic returns exactly the oracle's
// verdict and message on every input.
func FuzzValidateTopic(f *testing.F) {
	for _, s := range []string{"", ".", "..", "...", "a", "a.b", "a..b", ".a", "a.", "a...b", "power-manager.node.setlimit", "x.y..", "é.ü"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, topic string) {
		got, want := ValidateTopic(topic), validateTopicSplit(topic)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("ValidateTopic(%q) = %v, oracle %v", topic, got, want)
		}
	})
}

func TestValidateTopicZeroAlloc(t *testing.T) {
	topics := []string{"a", "broker.ping", "power-manager.node.setlimit", "power-monitor.collect"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, topic := range topics {
			if ValidateTopic(topic) != nil {
				t.Fatal("valid topic rejected")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ValidateTopic allocates %.1f times per run of valid topics, want 0", allocs)
	}
}
