package invoke

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"nonrep/internal/id"
	"nonrep/internal/protocol"
)

// ProtocolHello is the protocol-negotiation service name. Section 4.2
// notes that "the client controls its own participation ... the client may
// change the behaviour of its B2BInvocationHandler to attempt to
// re-negotiate the non-repudiation protocol to execute"; the hello service
// is the discovery half of that negotiation: servers advertise the
// invocation protocols they accept, and clients pick their most preferred
// mutually supported one.
const ProtocolHello = "invoke-hello"

// ErrNoCommonProtocol is returned when negotiation finds no mutually
// acceptable protocol.
var ErrNoCommonProtocol = errors.New("invoke: no mutually supported invocation protocol")

// helloBody is the hello service's reply payload.
type helloBody struct {
	Protocols []string `json:"protocols"`
}

// HelloService advertises a party's registered invocation protocols.
type HelloService struct {
	protocol.RequestMux
	co *protocol.Coordinator
}

var _ protocol.Handler = (*HelloService)(nil)

// NewHelloService creates the negotiation service and registers it with
// the party's coordinator.
func NewHelloService(co *protocol.Coordinator) *HelloService {
	s := &HelloService{co: co}
	s.RequestMux = protocol.NewRequestMux(ProtocolHello, "hello", map[string]protocol.RequestFunc{"hello": s.handleHello})
	co.Register(s)
	return s
}

// handleHello returns the invocation protocols this coordinator serves.
func (s *HelloService) handleHello(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	var supported []string
	for _, name := range s.co.Protocols() {
		if _, known := protocolFor(name); known {
			supported = append(supported, name)
		}
	}
	sort.Strings(supported)
	reply := &protocol.Message{Protocol: ProtocolHello, Run: msg.Run, Kind: "protocols"}
	if err := reply.SetBody(helloBody{Protocols: supported}); err != nil {
		return nil, err
	}
	return reply, nil
}

// SupportedProtocols asks a server which invocation protocols it accepts.
func SupportedProtocols(ctx context.Context, co *protocol.Coordinator, server id.Party) ([]string, error) {
	msg := &protocol.Message{Protocol: ProtocolHello, Run: id.NewRun(), Kind: "hello"}
	if err := msg.SetBody(struct{}{}); err != nil {
		return nil, err
	}
	reply, err := co.DeliverRequest(ctx, server, msg)
	if err != nil {
		return nil, err
	}
	var body helloBody
	if err := reply.Body(&body); err != nil {
		return nil, err
	}
	return body.Protocols, nil
}

// Negotiate returns a client configured with the first of the caller's
// protocol preferences the server supports. Without preferences it takes
// the first in protocols that a server serves itself, not through a relay.
func Negotiate(ctx context.Context, co *protocol.Coordinator, server id.Party, preferences ...string) (*Client, string, error) {
	if len(preferences) == 0 {
		for _, d := range protocols {
			if !d.relayed {
				preferences = append(preferences, d.name)
			}
		}
	}
	supported, err := SupportedProtocols(ctx, co, server)
	if err != nil {
		return nil, "", err
	}
	set := make(map[string]bool, len(supported))
	for _, s := range supported {
		set[s] = true
	}
	for _, pref := range preferences {
		if set[pref] {
			return NewClient(co, WithProtocol(pref)), pref, nil
		}
	}
	return nil, "", fmt.Errorf("%w: server %s offers %v, client prefers %v",
		ErrNoCommonProtocol, server, supported, preferences)
}
