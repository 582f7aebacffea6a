package broker

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/simtime"
)

// LiveInstance is a Flux instance whose brokers talk over real TCP
// sockets and schedule module timers on the wall clock — the deployment
// shape of the paper's production system (one flux-broker daemon per
// node), here hosted in one process for testing and demos. The broker,
// module and policy code is byte-identical to the simulation's; only the
// transport and the clock differ.
type LiveInstance struct {
	Brokers []*Broker
	Wall    *simtime.Wall

	mu        sync.Mutex
	listeners []*transport.Listener
	links     []transport.Link
	// addrs maps each listening rank to its TCP address so reattach
	// dialers can reach candidate parents at runtime. Every reattach
	// candidate is an ancestor, and every ancestor has formula children,
	// hence a listener.
	addrs map[int32]string
}

// helloTopic is the control handshake a child sends on connecting so the
// parent can bind the connection to a child rank.
const helloTopic = "broker.hello"

// NewLiveInstance builds Size brokers wired into a k-ary TBON over
// loopback TCP. Parents listen on ephemeral ports; children dial and
// identify themselves with a control hello.
func NewLiveInstance(opts InstanceOptions) (*LiveInstance, error) {
	if opts.Size <= 0 {
		return nil, fmt.Errorf("broker: live instance size %d must be positive", opts.Size)
	}
	k := opts.Fanout
	if k == 0 {
		k = 2
	}
	li := &LiveInstance{Wall: simtime.NewWall()}
	for rank := int32(0); rank < int32(opts.Size); rank++ {
		var local any
		if opts.Local != nil {
			local = opts.Local(rank)
		}
		b, err := New(Options{
			Rank:        rank,
			Size:        int32(opts.Size),
			Fanout:      k,
			Clock:       li.Wall,
			Timers:      li.Wall,
			Local:       local,
			CallTimeout: opts.CallTimeout,
			Heal:        opts.Heal,
		})
		if err != nil {
			li.Close()
			return nil, err
		}
		li.Brokers = append(li.Brokers, b)
	}
	// Parents with children listen; addresses collected first, then
	// children dial.
	addrs := make(map[int32]string)
	for rank := int32(0); rank < int32(opts.Size); rank++ {
		if len(ChildRanks(rank, k, int32(opts.Size))) == 0 {
			continue
		}
		parent := li.Brokers[rank]
		ln, err := transport.ListenTCP("127.0.0.1:0", func(link transport.Link) transport.Handler {
			li.trackLink(link)
			return li.acceptChild(parent, link, opts.WrapLink)
		})
		if err != nil {
			li.Close()
			return nil, err
		}
		li.mu.Lock()
		li.listeners = append(li.listeners, ln)
		li.mu.Unlock()
		addrs[rank] = ln.Addr()
	}
	li.mu.Lock()
	li.addrs = addrs
	li.mu.Unlock()
	if opts.Heal != nil {
		li.installDialers(opts.WrapLink)
	}
	for rank := int32(1); rank < int32(opts.Size); rank++ {
		child := li.Brokers[rank]
		parentRank := ParentRank(rank, k)
		link, err := transport.DialTCP(addrs[parentRank], child.Deliver, nil)
		if err != nil {
			li.Close()
			return nil, err
		}
		li.trackLink(link)
		// The hello handshake below bypasses the wrapper on purpose: fault
		// injectors start disarmed, but wiring must never depend on that.
		up := transport.Link(link)
		if opts.WrapLink != nil {
			up = opts.WrapLink(rank, parentRank, up)
		}
		child.SetParent(up)
		hello := &msg.Message{Type: msg.TypeControl, Topic: helloTopic, Sender: rank}
		if err := link.Send(hello); err != nil {
			li.Close()
			return nil, err
		}
	}
	// Wait for every parent to have registered all its children, so no
	// message races ahead of the handshake.
	deadline := time.Now().Add(5 * time.Second)
	for rank := int32(0); rank < int32(opts.Size); rank++ {
		want := len(ChildRanks(rank, k, int32(opts.Size)))
		for li.Brokers[rank].childCount() < want {
			if time.Now().After(deadline) {
				li.Close()
				return nil, fmt.Errorf("broker: live TBON handshake timed out at rank %d", rank)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return li, nil
}

// acceptChild returns the inbound handler for a freshly accepted
// connection: the first message must be the hello control identifying the
// child rank; everything after flows into the parent broker. The child
// rank is only known at hello time, so the parent's downstream wrapper
// (fault injection, byte counting) is applied here rather than at accept.
func (li *LiveInstance) acceptChild(parent *Broker, link transport.Link, wrap func(from, to int32, l transport.Link) transport.Link) transport.Handler {
	var once sync.Once
	return func(m *msg.Message) {
		handled := false
		once.Do(func() {
			if m.Type == msg.TypeControl && m.Topic == helloTopic {
				var hp struct {
					Reattach bool `json:"reattach"`
				}
				if len(m.Payload) > 0 {
					_ = json.Unmarshal(m.Payload, &hp)
				}
				down := link
				if wrap != nil {
					down = wrap(parent.Rank(), m.Sender, down)
				}
				if hp.Reattach {
					// A reattach hello only offers the link: adoption
					// happens when the orphan's reattach request arrives
					// through the (possibly fault-injecting) wrapper.
					parent.OfferLink(m.Sender, down)
				} else {
					parent.AddChild(m.Sender, down)
				}
				handled = true
			}
		})
		if handled {
			return
		}
		parent.Deliver(m)
	}
}

// installDialers gives every broker a reattach dialer: open a TCP link
// to the candidate's listener, identify with a reattach-flagged hello
// (unwrapped, like the wiring handshake), and hand back the wrapped
// upstream link for the heal handshake itself.
func (li *LiveInstance) installDialers(wrap func(from, to int32, l transport.Link) transport.Link) {
	for _, b := range li.Brokers {
		b := b
		b.SetDialer(func(to int32) (transport.Link, error) {
			li.mu.Lock()
			addr, ok := li.addrs[to]
			li.mu.Unlock()
			if !ok {
				return nil, fmt.Errorf("broker: rank %d has no listener to reattach to", to)
			}
			link, err := transport.DialTCP(addr, b.Deliver, nil)
			if err != nil {
				return nil, err
			}
			li.trackLink(link)
			hello := &msg.Message{
				Type:    msg.TypeControl,
				Topic:   helloTopic,
				Sender:  b.Rank(),
				Payload: json.RawMessage(`{"reattach":true}`),
			}
			if err := link.Send(hello); err != nil {
				_ = link.Close()
				return nil, err
			}
			up := transport.Link(link)
			if wrap != nil {
				up = wrap(b.Rank(), to, up)
			}
			return up, nil
		})
	}
}

func (li *LiveInstance) trackLink(l transport.Link) {
	li.mu.Lock()
	li.links = append(li.links, l)
	li.mu.Unlock()
}

// Root returns the rank-0 broker.
func (li *LiveInstance) Root() *Broker { return li.Brokers[0] }

// Broker returns the broker at the given rank.
func (li *LiveInstance) Broker(rank int32) *Broker { return li.Brokers[rank] }

// LoadModuleAll loads one module per broker, as Instance.LoadModuleAll.
func (li *LiveInstance) LoadModuleAll(factory func(rank int32) Module) error {
	for rank, b := range li.Brokers {
		if err := b.LoadModule(factory(int32(rank))); err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return nil
}

// Close tears the instance down: stops wall timers, closes links and
// listeners.
func (li *LiveInstance) Close() {
	if li.Wall != nil {
		li.Wall.Close()
	}
	li.mu.Lock()
	listeners := li.listeners
	links := li.links
	li.listeners = nil
	li.links = nil
	li.mu.Unlock()
	for _, ln := range listeners {
		_ = ln.Close()
	}
	for _, l := range links {
		_ = l.Close()
	}
}

// childCount reports how many children a broker has registered.
func (b *Broker) childCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.children)
}
