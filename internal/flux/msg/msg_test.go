package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeRequest:  "request",
		TypeResponse: "response",
		TypeEvent:    "event",
		TypeControl:  "control",
		Type(99):     "type(99)",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Fatalf("Type(%d).String()=%q, want %q", int(ty), got, want)
		}
	}
}

func TestNewRequestAndUnmarshal(t *testing.T) {
	type body struct {
		JobID int `json:"jobid"`
	}
	m, err := NewRequest("power.monitor.query", 3, 0, 7, body{JobID: 42})
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeRequest || m.NodeID != 3 || m.Sender != 0 || m.Matchtag != 7 {
		t.Fatalf("request fields: %+v", m)
	}
	var got body
	if err := m.Unmarshal(&got); err != nil {
		t.Fatal(err)
	}
	if got.JobID != 42 {
		t.Fatalf("payload round trip: %+v", got)
	}
}

func TestNewRequestNilPayload(t *testing.T) {
	m, err := NewRequest("a.b", NodeAny, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "{}" {
		t.Fatalf("nil payload encoded as %s", m.Payload)
	}
}

func TestNewRequestBadTopic(t *testing.T) {
	for _, topic := range []string{"", ".a", "a.", "a..b"} {
		if _, err := NewRequest(topic, 0, 0, 0, nil); err == nil {
			t.Fatalf("topic %q accepted", topic)
		}
	}
}

func TestResponseRoutesBackToRequester(t *testing.T) {
	req, _ := NewRequest("svc.op", 5, 2, 9, nil)
	resp, err := NewResponse(req, 5, map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NodeID != 2 {
		t.Fatalf("response NodeID=%d, want requester rank 2", resp.NodeID)
	}
	if resp.Matchtag != 9 || resp.Topic != "svc.op" || resp.Type != TypeResponse {
		t.Fatalf("response fields: %+v", resp)
	}
	if resp.Err() != nil {
		t.Fatal("success response should have nil Err")
	}
}

func TestErrorResponse(t *testing.T) {
	req, _ := NewRequest("svc.op", 0, 4, 11, nil)
	resp := NewErrorResponse(req, 0, ENOSYS, "no such service")
	err := resp.Err()
	if err == nil {
		t.Fatal("error response Err() = nil")
	}
	var me *Error
	if !errors.As(err, &me) {
		t.Fatalf("Err() type %T", err)
	}
	if me.Errnum != ENOSYS || !strings.Contains(me.Error(), "no such service") {
		t.Fatalf("error detail: %+v", me)
	}
	// Errnum 0 coerces to EPROTO so failures can't masquerade as success.
	resp2 := NewErrorResponse(req, 0, 0, "unspecified")
	if resp2.Errnum != EPROTO {
		t.Fatalf("errnum 0 coerced to %d, want EPROTO", resp2.Errnum)
	}
}

func TestEventConstruction(t *testing.T) {
	ev, err := NewEvent("job.start", 0, 12, map[string]any{"id": 1})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != TypeEvent || ev.Seq != 12 {
		t.Fatalf("event fields: %+v", ev)
	}
}

func TestUnmarshalEmptyPayload(t *testing.T) {
	m := &Message{Type: TypeRequest, Topic: "a"}
	var v struct{}
	if err := m.Unmarshal(&v); err == nil {
		t.Fatal("empty payload unmarshal should fail")
	}
}

func TestValidateTopic(t *testing.T) {
	for _, good := range []string{"a", "a.b", "power.monitor.collect"} {
		if err := ValidateTopic(good); err != nil {
			t.Fatalf("good topic %q rejected: %v", good, err)
		}
	}
	for _, bad := range []string{"", ".", "a.", ".b", "a..b"} {
		if err := ValidateTopic(bad); err == nil {
			t.Fatalf("bad topic %q accepted", bad)
		}
	}
}

func TestTopicService(t *testing.T) {
	cases := map[string]string{
		"power.monitor.query": "power.monitor",
		"kvs.get":             "kvs",
		"ping":                "ping",
	}
	for in, want := range cases {
		if got := TopicService(in); got != want {
			t.Fatalf("TopicService(%q)=%q, want %q", in, got, want)
		}
	}
}

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"job.start", "job.start", true},
		{"job.*", "job.start", true},
		{"job.*", "job.finish", true},
		{"job.*", "jobx.start", false},
		{"job.start", "job.finish", false},
		{"power.*", "power.monitor.sample", true},
	}
	for _, c := range cases {
		if got := MatchGlob(c.pattern, c.topic); got != c.want {
			t.Fatalf("MatchGlob(%q,%q)=%v, want %v", c.pattern, c.topic, got, c.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, _ := NewRequest("svc.method", 7, 3, 99, map[string]string{"k": "v"})
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topic != m.Topic || got.NodeID != m.NodeID || got.Matchtag != m.Matchtag {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
	var v map[string]string
	if err := got.Unmarshal(&v); err != nil || v["k"] != "v" {
		t.Fatalf("payload: %v err=%v", v, err)
	}
}

func TestDecodeEOFOnCleanClose(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream err=%v, want io.EOF", err)
	}
}

func TestDecodeRejectsBadFrames(t *testing.T) {
	// Zero-length frame.
	var zero bytes.Buffer
	zero.Write([]byte{0, 0, 0, 0})
	if _, err := Decode(&zero); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Over-long frame header.
	var huge bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	huge.Write(hdr[:])
	if _, err := Decode(&huge); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated body.
	var short bytes.Buffer
	binary.BigEndian.PutUint32(hdr[:], 10)
	short.Write(hdr[:])
	short.WriteString("abc")
	if _, err := Decode(&short); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Valid JSON, invalid type.
	var badType bytes.Buffer
	body := []byte(`{"type":9,"topic":"a","nodeid":0,"sender":0}`)
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	badType.Write(hdr[:])
	badType.Write(body)
	if _, err := Decode(&badType); err == nil {
		t.Fatal("invalid message type accepted")
	}
	// Non-JSON body.
	var notJSON bytes.Buffer
	body = []byte("this is not json")
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	notJSON.Write(hdr[:])
	notJSON.Write(body)
	if _, err := Decode(&notJSON); err == nil {
		t.Fatal("non-JSON frame accepted")
	}
}

func TestCopyIsIndependent(t *testing.T) {
	m, _ := NewRequest("a.b", 1, 2, 3, nil)
	cp := m.Copy()
	cp.NodeID = 9
	if m.NodeID != 1 {
		t.Fatal("Copy shares mutable fields")
	}
}

// Property: any message with a valid topic survives an encode/decode
// round trip with all routing fields intact.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(topicSeed uint8, nodeID int32, sender int32, matchtag uint32, seq uint64) bool {
		topics := []string{"a", "kvs.get", "power.monitor.collect", "job.manager.submit"}
		topic := topics[int(topicSeed)%len(topics)]
		m := &Message{
			Type:     TypeRequest,
			Topic:    topic,
			NodeID:   nodeID,
			Sender:   sender,
			Matchtag: matchtag,
			Seq:      seq,
			Payload:  []byte(`{"x":1}`),
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return got.Topic == topic && got.NodeID == nodeID && got.Sender == sender &&
			got.Matchtag == matchtag && got.Seq == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics and never returns a message on random
// garbage prefixed with a plausible length header.
func TestQuickDecodeRobustness(t *testing.T) {
	f := func(body []byte) bool {
		if len(body) > 4096 {
			body = body[:4096]
		}
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		buf.Write(hdr[:])
		buf.Write(body)
		m, err := Decode(&buf)
		if err != nil {
			return true // rejection is fine
		}
		// Anything accepted must be a structurally valid message.
		return m.Type >= TypeRequest && m.Type <= TypeControl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ValidateTopic accepts exactly the strings whose dot-split
// components are all non-empty. A part may itself hold dots ("a.b"), so
// the model splits the joined topic rather than checking the parts.
func TestQuickValidateTopicModel(t *testing.T) {
	f := func(parts []string) bool {
		if len(parts) == 0 {
			return true
		}
		if len(parts) > 6 {
			parts = parts[:6]
		}
		topic := strings.Join(parts, ".")
		wantOK := !slices.Contains(strings.Split(topic, "."), "")
		err := ValidateTopic(topic)
		return (err == nil) == wantOK
	}
	for _, parts := range [][]string{{"a.b"}, {".a"}, {"a."}, {"a..b"}} {
		if !f(parts) {
			t.Errorf("parts %q: ValidateTopic disagrees with the model", parts)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
