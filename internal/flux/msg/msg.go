// Package msg implements the Flux message protocol used on the simulated
// tree-based overlay network (TBON), following the shape of Flux RFC 3:
// four message types (request, response, event, control), dotted topic
// strings that name services, matchtags correlating responses to requests,
// and node-id addressing with an "any" sentinel that routes upstream to
// the closest broker implementing the service.
//
// Payloads are JSON, as in Flux. Frames for the TCP transport are
// length-prefixed JSON encodings of the Message struct.
package msg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Type discriminates the four RFC 3 message classes.
type Type int

// Message types.
const (
	TypeRequest Type = iota + 1
	TypeResponse
	TypeEvent
	TypeControl
)

func (t Type) String() string {
	switch t {
	case TypeRequest:
		return "request"
	case TypeResponse:
		return "response"
	case TypeEvent:
		return "event"
	case TypeControl:
		return "control"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// NodeAny addresses a request to the nearest broker (walking upstream
// toward rank 0) that has the topic's service registered.
const NodeAny int32 = -1

// Errno values carried on error responses, modeled on the POSIX codes
// Flux uses.
const (
	ErrnoOK      = 0
	ENOSYS       = 38 // no such service
	EINVAL       = 22 // malformed request
	EPROTO       = 71 // protocol violation
	EHOSTUNREACH = 113
	EPERM        = 1
	ENOENT       = 2
	EAGAIN       = 11
	ETIMEDOUT    = 110 // rpc deadline passed with no response
)

// Message is one protocol unit. The zero Message is invalid; use the
// constructors.
type Message struct {
	Type     Type   `json:"type"`
	Topic    string `json:"topic"`
	Matchtag uint32 `json:"matchtag,omitempty"`
	// NodeID is the destination broker rank for requests (NodeAny routes
	// upstream); for responses it is the requester's rank.
	NodeID int32 `json:"nodeid"`
	// Sender is the originating broker rank.
	Sender  int32           `json:"sender"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Errnum/Errstr carry failure on responses (Errnum != 0).
	Errnum int    `json:"errnum,omitempty"`
	Errstr string `json:"errstr,omitempty"`
	// Seq numbers events for ordering/dedup during broadcast.
	Seq uint64 `json:"seq,omitempty"`
	// Hops counts broker-to-broker forwards. Brokers running with the
	// self-healing extension increment it on every routed hop, both to
	// bound transient routing loops while the tree re-forms and to let
	// the reduction plane derive per-hop deadline margins from the path a
	// request actually took instead of the static tree depth.
	Hops int `json:"hops,omitempty"`
}

// NewRequest builds a request for topic addressed to nodeID, with payload
// marshalled to JSON. A nil payload sends an empty object.
func NewRequest(topic string, nodeID int32, sender int32, matchtag uint32, payload any) (*Message, error) {
	raw, err := marshalPayload(payload)
	if err != nil {
		return nil, err
	}
	if err := ValidateTopic(topic); err != nil {
		return nil, err
	}
	return &Message{
		Type:     TypeRequest,
		Topic:    topic,
		Matchtag: matchtag,
		NodeID:   nodeID,
		Sender:   sender,
		Payload:  raw,
	}, nil
}

// NewResponse builds the success response to req with the given payload.
func NewResponse(req *Message, responder int32, payload any) (*Message, error) {
	raw, err := marshalPayload(payload)
	if err != nil {
		return nil, err
	}
	return &Message{
		Type:     TypeResponse,
		Topic:    req.Topic,
		Matchtag: req.Matchtag,
		NodeID:   req.Sender, // responses route back to the requester
		Sender:   responder,
		Payload:  raw,
	}, nil
}

// NewErrorResponse builds a failure response to req.
func NewErrorResponse(req *Message, responder int32, errnum int, errstr string) *Message {
	if errnum == 0 {
		errnum = EPROTO
	}
	return &Message{
		Type:     TypeResponse,
		Topic:    req.Topic,
		Matchtag: req.Matchtag,
		NodeID:   req.Sender,
		Sender:   responder,
		Errnum:   errnum,
		Errstr:   errstr,
	}
}

// NewEvent builds an event message for broadcast.
func NewEvent(topic string, sender int32, seq uint64, payload any) (*Message, error) {
	raw, err := marshalPayload(payload)
	if err != nil {
		return nil, err
	}
	if err := ValidateTopic(topic); err != nil {
		return nil, err
	}
	return &Message{
		Type:    TypeEvent,
		Topic:   topic,
		Sender:  sender,
		Seq:     seq,
		Payload: raw,
	}, nil
}

func marshalPayload(payload any) (json.RawMessage, error) {
	if payload == nil {
		return json.RawMessage(`{}`), nil
	}
	if raw, ok := payload.(json.RawMessage); ok {
		return raw, nil
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("msg: marshal payload: %w", err)
	}
	return raw, nil
}

// Unmarshal decodes the message payload into v.
func (m *Message) Unmarshal(v any) error {
	if len(m.Payload) == 0 {
		return errors.New("msg: empty payload")
	}
	if err := json.Unmarshal(m.Payload, v); err != nil {
		return fmt.Errorf("msg: unmarshal %s payload for %q: %w", m.Type, m.Topic, err)
	}
	return nil
}

// Err converts an error response into a Go error (nil for success).
func (m *Message) Err() error {
	if m.Type != TypeResponse || m.Errnum == 0 {
		return nil
	}
	return &Error{Errnum: m.Errnum, Errstr: m.Errstr, Topic: m.Topic}
}

// Error is the decoded failure carried on an error response.
type Error struct {
	Errnum int
	Errstr string
	Topic  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("msg: %q failed: errno %d: %s", e.Topic, e.Errnum, e.Errstr)
}

// ValidateTopic enforces RFC 3 style dotted, non-empty topics.
func ValidateTopic(topic string) error {
	if topic == "" {
		return errors.New("msg: empty topic")
	}
	if strings.HasPrefix(topic, ".") || strings.HasSuffix(topic, ".") {
		return fmt.Errorf("msg: topic %q has leading/trailing dot", topic)
	}
	if strings.Contains(topic, "..") {
		return fmt.Errorf("msg: topic %q has empty component", topic)
	}
	return nil
}

// TopicService returns the service name of a topic: the prefix before the
// final dot ("power.monitor.query" → "power.monitor"). A topic with no dot
// is its own service.
func TopicService(topic string) string {
	if i := strings.LastIndex(topic, "."); i >= 0 {
		return topic[:i]
	}
	return topic
}

// MatchGlob reports whether topic matches pattern, where a pattern ending
// in ".*" matches any suffix (like Flux event subscriptions, which match
// on prefix).
func MatchGlob(pattern, topic string) bool {
	if pattern == topic {
		return true
	}
	if strings.HasSuffix(pattern, ".*") {
		prefix := strings.TrimSuffix(pattern, "*")
		return strings.HasPrefix(topic, prefix)
	}
	return false
}

// Encode writes the message as a length-prefixed JSON frame: a 4-byte
// big-endian length followed by the JSON body. This is the TCP transport's
// wire format.
func (m *Message) Encode(w io.Writer) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("msg: encode: %w", err)
	}
	if len(body) > MaxFrameSize {
		return fmt.Errorf("msg: frame of %d bytes exceeds limit %d", len(body), MaxFrameSize)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// MaxFrameSize bounds a single frame; the largest legitimate frames are
// job power telemetry aggregates (bounded by ring capacity).
const MaxFrameSize = 64 << 20

// EncodedSize returns the number of bytes the message occupies on the
// wire (header plus JSON body) — the unit the scale experiments use to
// account for bytes crossing a TBON link. In-memory links never encode,
// so this is computed on demand rather than cached.
func (m *Message) EncodedSize() int {
	body, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	return 4 + len(body)
}

// maxPrealloc caps the up-front allocation for an incoming frame. A
// length prefix is attacker-controlled (or fault-injector-corrupted)
// until the body actually arrives, so larger frames grow a buffer as
// bytes are read: a truncated frame claiming MaxFrameSize costs an
// error, not a 64 MB allocation.
const maxPrealloc = 64 << 10

// Decode reads one length-prefixed frame from r.
func Decode(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF propagates cleanly for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameSize {
		return nil, fmt.Errorf("msg: invalid frame length %d", n)
	}
	var body []byte
	if n <= maxPrealloc {
		body = make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("msg: short frame: %w", err)
		}
	} else {
		var buf bytes.Buffer
		buf.Grow(maxPrealloc)
		if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
			return nil, fmt.Errorf("msg: short frame: %w", err)
		}
		body = buf.Bytes()
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("msg: decode: %w", err)
	}
	if m.Type < TypeRequest || m.Type > TypeControl {
		return nil, fmt.Errorf("msg: invalid message type %d", m.Type)
	}
	return &m, nil
}

// Copy returns a deep copy of the message (payload bytes are shared; they
// are treated as immutable everywhere).
func (m *Message) Copy() *Message {
	cp := *m
	return &cp
}
