package protocol_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
)

const (
	alice = id.Party("urn:org:alice")
	bob   = id.Party("urn:org:bob")
)

// errPingRefused is pingHandler's answer to a "refuse" message.
var errPingRefused = errors.New("ping refused")

// pingHandler answers pings, acknowledges notes with nil and refuses
// "refuse" messages.
type pingHandler struct {
	requests atomic.Int64
}

func (h *pingHandler) Protocol() string { return "ping" }

func (h *pingHandler) ProcessRequest(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	h.requests.Add(1)
	switch msg.Kind {
	case "note":
		return nil, nil
	case "refuse":
		return nil, errPingRefused
	}
	reply := &protocol.Message{Protocol: "ping", Run: msg.Run, Step: msg.Step + 1, Kind: "pong"}
	if err := reply.SetBody(map[string]string{"echo": string(msg.Payload)}); err != nil {
		return nil, err
	}
	return reply, nil
}

type fixture struct {
	realm *testpki.Realm
	net   *transport.InprocNetwork
	dir   *protocol.Directory
	coA   *protocol.Coordinator
	coB   *protocol.Coordinator
	hB    *pingHandler
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	realm := testpki.MustRealm(alice, bob)
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	dir := protocol.NewDirectory()

	newCo := func(p id.Party) *protocol.Coordinator {
		svc := &protocol.Services{
			Party:     p,
			Issuer:    realm.Party(p).Issuer,
			Verifier:  realm.Verifier(),
			Log:       testpki.Log(t, realm.Clock),
			States:    store.NewMemStateStore(),
			Clock:     realm.Clock,
			Directory: dir,
		}
		co, err := protocol.New(network, string(p), svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co
	}
	f := &fixture{realm: realm, net: network, dir: dir, coA: newCo(alice), coB: newCo(bob), hB: &pingHandler{}}
	f.coB.Register(f.hB)
	return f
}

func TestDeliverRequestRoundTrip(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Kind: "ping", Payload: []byte("hi")}
	reply, err := f.coA.DeliverRequest(context.Background(), bob, msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != "pong" || reply.Step != 2 {
		t.Fatalf("reply = %+v", reply)
	}
	var body map[string]string
	if err := reply.Body(&body); err != nil {
		t.Fatal(err)
	}
	if body["echo"] != "hi" {
		t.Fatalf("echo = %q", body["echo"])
	}
	if f.hB.requests.Load() != 1 {
		t.Fatalf("requests = %d", f.hB.requests.Load())
	}
}

// TestDeliverOneWay: a one-way delivery returns once the far handler has
// processed it, on the in-process network as over TCP.
func TestDeliverOneWay(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Kind: "note"}
	if err := f.coA.Deliver(context.Background(), bob, msg); err != nil {
		t.Fatal(err)
	}
	if got := f.hB.requests.Load(); got != 1 {
		t.Fatalf("handler processed %d messages when Deliver returned, want 1", got)
	}
}

// TestDeliverReturnsHandlerError: the error of the handler a delivery
// reached comes back to its sender.
func TestDeliverReturnsHandlerError(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Kind: "refuse"}
	if err := f.coA.Deliver(context.Background(), bob, msg); !errors.Is(err, errPingRefused) {
		t.Fatalf("Deliver = %v, want the handler's %v", err, errPingRefused)
	}
}

// TestRefusedDeliveryReturnsAtOnce: a handler's refusal reaches the
// sender without being repeated — the receiver's replay cache would only
// answer each repeat with it again — over TCP as in process.
func TestRefusedDeliveryReturnsAtOnce(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	inproc, tcp := transport.NewInprocNetwork(), transport.NewTCPNetwork()
	t.Cleanup(func() { _ = inproc.Close(); _ = tcp.Close() })
	for _, network := range []transport.Network{inproc, tcp} {
		dir := protocol.NewDirectory()
		newCo := func(p id.Party) *protocol.Coordinator {
			addr := string(p)
			if network == tcp {
				addr = "127.0.0.1:0"
			}
			svc := &protocol.Services{
				Party: p, Issuer: realm.Party(p).Issuer, Verifier: realm.Verifier(),
				Log: testpki.Log(t, realm.Clock), States: store.NewMemStateStore(),
				Clock: realm.Clock, Directory: dir,
			}
			co, err := protocol.New(network, addr, svc)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = co.Close() })
			return co
		}
		coA, coB, h := newCo(alice), newCo(bob), &pingHandler{}
		coB.Register(h)
		start := time.Now()
		err := coA.Deliver(context.Background(), bob, &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Kind: "refuse"})
		if took := time.Since(start); err == nil || !strings.Contains(err.Error(), errPingRefused.Error()) || h.requests.Load() != 1 || took > 50*time.Millisecond {
			t.Fatalf("%T: refused delivery = %v after %d requests in %v, want the refusal after 1 within 50ms", network, err, h.requests.Load(), took)
		}
	}
}

// TestLegacyDeliverEnvelopeAccepted: a one-way delivery keeps its wire
// form — a "b2b-deliver" envelope, here with the JSON message body older
// peers wrote, sent from a bare endpoint — and reaches the handler, which
// answers it with nil.
func TestLegacyDeliverEnvelopeAccepted(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	raw, err := f.net.Register("legacy-peer", transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	body, err := canon.Marshal(&protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Kind: "note", Sender: alice})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := raw.Request(context.Background(), f.coB.Addr(), transport.NewEnvelope("b2b-deliver", body))
	if err != nil || reply != nil {
		t.Fatalf("b2b-deliver answered %+v, %v; want nil, nil", reply, err)
	}
	if got := f.hB.requests.Load(); got != 1 {
		t.Fatalf("handler processed %d messages, want 1", got)
	}
}

func TestSenderStamped(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	var got *protocol.Message
	f.coB.Register(&captureHandler{name: "capture", capture: &got})
	msg := &protocol.Message{Protocol: "capture", Run: id.NewRun(), Step: 1}
	if _, err := f.coA.DeliverRequest(context.Background(), bob, msg); err != nil {
		t.Fatal(err)
	}
	if got.Sender != alice {
		t.Fatalf("Sender = %s, want %s", got.Sender, alice)
	}
	if got.ReplyAddr != f.coA.Addr() {
		t.Fatalf("ReplyAddr = %s, want %s", got.ReplyAddr, f.coA.Addr())
	}
}

type captureHandler struct {
	name    string
	capture **protocol.Message
}

func (h *captureHandler) Protocol() string { return h.name }

func (h *captureHandler) ProcessRequest(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	*h.capture = msg
	return &protocol.Message{Protocol: h.name, Run: msg.Run, Kind: "ok"}, nil
}

func TestNoHandler(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	msg := &protocol.Message{Protocol: "unknown", Run: id.NewRun()}
	_, err := f.coA.DeliverRequest(context.Background(), bob, msg)
	if !errors.Is(err, protocol.ErrNoHandler) {
		t.Fatalf("DeliverRequest = %v, want ErrNoHandler", err)
	}
}

func TestUnknownParty(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	msg := &protocol.Message{Protocol: "ping", Run: id.NewRun()}
	if err := f.coA.Deliver(context.Background(), "urn:org:nobody", msg); err == nil {
		t.Fatal("Deliver to unknown party succeeded")
	}
}

func TestMessageTokens(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice)
	run := id.NewRun()
	tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	msg := &protocol.Message{Protocol: "p", Run: run, Tokens: []*evidence.Token{tok}}
	if got := msg.Token(evidence.KindNRO); got != tok {
		t.Fatal("Token(KindNRO) did not return the token")
	}
	if got := msg.Token(evidence.KindNRR); got != nil {
		t.Fatal("Token(KindNRR) returned a token")
	}
}

func TestMessageBodyRoundTrip(t *testing.T) {
	t.Parallel()
	msg := &protocol.Message{Protocol: "p"}
	type body struct {
		N int    `json:"n"`
		S string `json:"s"`
	}
	if err := msg.SetBody(body{N: 7, S: "x"}); err != nil {
		t.Fatal(err)
	}
	var got body
	if err := msg.Body(&got); err != nil {
		t.Fatal(err)
	}
	if got.N != 7 || got.S != "x" {
		t.Fatalf("Body = %+v", got)
	}
	if msg.PayloadDigest().IsZero() {
		t.Fatal("PayloadDigest is zero")
	}
}

func TestReplyCache(t *testing.T) {
	t.Parallel()
	cache := protocol.NewReplyCache()
	run := id.NewRun()
	if _, ok := cache.Get(run, 1); ok {
		t.Fatal("Get on empty cache returned a message")
	}
	msg := &protocol.Message{Protocol: "p", Run: run}
	cache.Put(run, 1, msg)
	got, ok := cache.Get(run, 1)
	if !ok || got != msg {
		t.Fatal("Get did not return the cached message")
	}
	if _, ok := cache.Get(run, 2); ok {
		t.Fatal("Get with different step returned a message")
	}
}

func TestDirectory(t *testing.T) {
	t.Parallel()
	dir := protocol.NewDirectory()
	dir.Register(alice, "addr-a")
	addr, err := dir.Resolve(alice)
	if err != nil || addr != "addr-a" {
		t.Fatalf("Resolve = %q, %v", addr, err)
	}
	if _, err := dir.Resolve(bob); err == nil {
		t.Fatal("Resolve(unregistered) succeeded")
	}
	if got := dir.Parties(); len(got) != 1 || got[0] != alice {
		t.Fatalf("Parties = %v", got)
	}
}

func TestServicesLogging(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	svc := f.coA.Services()
	run := id.NewRun()
	tok, err := svc.Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.LogGenerated(tok, "sent request"); err != nil {
		t.Fatal(err)
	}
	if err := svc.LogReceived(tok, "loopback"); err != nil {
		t.Fatal(err)
	}
	if svc.Log.Len() != 2 {
		t.Fatalf("log has %d records, want 2", svc.Log.Len())
	}
	if err := svc.Log.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorOverTCP(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	network := transport.NewTCPNetwork()
	dir := protocol.NewDirectory()
	newCo := func(p id.Party) *protocol.Coordinator {
		svc := &protocol.Services{
			Party:     p,
			Issuer:    realm.Party(p).Issuer,
			Verifier:  realm.Verifier(),
			Log:       testpki.Log(t, realm.Clock),
			States:    store.NewMemStateStore(),
			Clock:     realm.Clock,
			Directory: dir,
		}
		co, err := protocol.New(network, "127.0.0.1:0", svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co
	}
	coA := newCo(alice)
	coB := newCo(bob)
	coB.Register(&pingHandler{})
	msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Payload: []byte("over-tcp")}
	reply, err := coA.DeliverRequest(context.Background(), bob, msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != "pong" {
		t.Fatalf("reply = %+v", reply)
	}
}

// ackHandler answers every request with an empty acknowledgement.
type ackHandler struct{}

func (ackHandler) Protocol() string { return "bulk" }

func (ackHandler) ProcessRequest(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	if len(msg.Attachment) != 1<<20 {
		return nil, fmt.Errorf("attachment of %d bytes", len(msg.Attachment))
	}
	return &protocol.Message{Protocol: "bulk", Run: msg.Run, Step: msg.Step, Kind: "chunk-ack"}, nil
}

// TestChunkRoundTripAllocationCeiling bounds what one 1 MiB chunk costs
// in allocated bytes from DeliverRequest to the handler and back over
// loopback TCP: the message encoder's one copy on the sending side plus
// the frame reader's growing buffer on the receiving side, about
// 2.4 MiB. Before attachments the same round trip allocated about 9 MiB
// (JSON and base64 both ways, contiguous frame assembly).
func TestChunkRoundTripAllocationCeiling(t *testing.T) {
	realm := testpki.MustRealm(alice, bob)
	network := transport.NewTCPNetwork()
	defer network.Close()
	dir := protocol.NewDirectory()
	newCo := func(p id.Party) *protocol.Coordinator {
		svc := &protocol.Services{
			Party: p, Issuer: realm.Party(p).Issuer, Verifier: realm.Verifier(),
			Log: testpki.Log(t, realm.Clock), States: store.NewMemStateStore(),
			Clock: realm.Clock, Directory: dir,
		}
		co, err := protocol.New(network, "127.0.0.1:0", svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co
	}
	coA, coB := newCo(alice), newCo(bob)
	coB.Register(ackHandler{})
	chunk := make([]byte, 1<<20)
	roundTrip := func() {
		msg := &protocol.Message{Protocol: "bulk", Run: id.NewRun(), Step: 1, Kind: "chunk", Attachment: chunk}
		if err := msg.SetBody(map[string]any{"stream": "s", "seq": 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := coA.DeliverRequest(context.Background(), bob, msg); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // connection-independent set-up: pools, counters
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perTrip := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d bytes allocated per 1 MiB chunk round trip", perTrip)
	if perTrip > 3<<20 {
		t.Fatalf("one 1 MiB chunk round trip allocated %d bytes, ceiling %d", perTrip, 3<<20)
	}
}
