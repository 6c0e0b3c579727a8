package invoke_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// The crash test of the durability rule (package comment of invoke).
//
// Every party logs to a vault on disk, and the network is decorated so
// that at the instant a party hands a message to the transport — an
// endpoint Send or Request, or a handler returning its reply or
// acknowledgement — the party's vault directory is copied and the copy
// opened read-only: what a machine that lost power at that instant would
// find on restart. R1 and R2 are then statements about those copies.

// Wire envelope kinds of the coordinator (private to package protocol).
const (
	envRequest = "b2b-deliver-request"
	envReply   = "b2b-reply"
	envDeliver = "b2b-deliver"
	envAck     = "" // a one-way delivery's handler returning nil
)

// handoff is one message handed to the transport and what its sender's
// vault held on disk at that instant, as "kind/direction" in log order.
type handoff struct {
	party string
	env   string
	held  []string
	toks  []*evidence.Token
}

// snapNetwork is the transport.Network decorator.
type snapNetwork struct {
	t     *testing.T
	inner transport.Network

	mu       sync.Mutex
	dirs     map[string]string // endpoint address → vault directory
	handoffs []handoff
}

func (n *snapNetwork) Register(addr string, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.inner.Register(addr, transport.HandlerFunc(func(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
		reply, err := h.Handle(ctx, env)
		if err == nil {
			kind := envAck
			if reply != nil {
				kind = reply.Kind
			}
			n.snap(addr, kind)
		}
		return reply, err
	}))
	if err != nil {
		return nil, err
	}
	return &snapEndpoint{Endpoint: ep, net: n}, nil
}

type snapEndpoint struct {
	transport.Endpoint
	net *snapNetwork
}

func (e *snapEndpoint) Send(ctx context.Context, to string, env *transport.Envelope) error {
	e.net.snap(e.Addr(), env.Kind)
	return e.Endpoint.Send(ctx, to, env)
}

func (e *snapEndpoint) Request(ctx context.Context, to string, env *transport.Envelope) (*transport.Envelope, error) {
	e.net.snap(e.Addr(), env.Kind)
	return e.Endpoint.Request(ctx, to, env)
}

// snap records a handoff by the party at addr.
func (n *snapNetwork) snap(addr, env string) {
	n.mu.Lock()
	dir := n.dirs[addr]
	n.mu.Unlock()
	held, toks := diskState(n.t, dir)
	n.mu.Lock()
	n.handoffs = append(n.handoffs, handoff{party: addr, env: env, held: held, toks: toks})
	n.mu.Unlock()
}

// take returns and clears the handoffs recorded so far.
func (n *snapNetwork) take() []handoff {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.handoffs
	n.handoffs = nil
	return out
}

// waitFor blocks until done holds of the handoffs recorded so far. One-way
// sends are delivered asynchronously: the receipt's acknowledgement
// happens after the client's call has returned.
func (n *snapNetwork) waitFor(done func([]handoff) bool) {
	n.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n.mu.Lock()
		ok := done(n.handoffs)
		n.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			n.t.Fatal("timed out waiting for the exchange's last message")
		}
		time.Sleep(time.Millisecond)
	}
}

// receiptAcked reports whether the server has acknowledged a receipt.
func receiptAcked(hs []handoff) bool {
	return len(hs) > 0 && hs[len(hs)-1].party == string(server) && hs[len(hs)-1].env == envAck
}

// copyVault copies a vault directory's files (not its LOCK: the copy is
// nobody's yet) into a fresh directory. Like diskState it runs on
// transport goroutines too, so failures are reported with Errorf.
func copyVault(t testing.TB, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Errorf("copy vault: %v", err)
		return dst
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600)
		}
		if err != nil {
			t.Errorf("copy vault: %v", err)
		}
	}
	return dst
}

// diskState copies the vault at dir, opens the copy read-only and lists
// what it holds.
func diskState(t testing.TB, dir string) ([]string, []*evidence.Token) {
	t.Helper()
	v, err := vault.Open(copyVault(t, dir), nil, vault.WithReadOnly())
	if err != nil {
		t.Errorf("copy of %s does not open: %v", dir, err)
		return nil, nil
	}
	defer v.Close()
	if err := v.DeepVerify(); err != nil {
		t.Errorf("copy of %s does not verify: %v", dir, err)
	}
	var held []string
	var toks []*evidence.Token
	for _, rec := range v.Records() {
		held = append(held, string(rec.Token.Kind)+"/"+string(rec.Direction))
		toks = append(toks, rec.Token)
	}
	return held, toks
}

// ruleFixture is a trust domain over the snapshotting network whose
// "processes" (node + vault) the test starts and kills by hand.
type ruleFixture struct {
	t     *testing.T
	realm *testpki.Realm
	net   *snapNetwork
	dir   *protocol.Directory
}

func newRuleFixture(t *testing.T) *ruleFixture {
	t.Helper()
	// The test's directories are removed after the network has closed:
	// Close waits for one-way deliveries still queued — a receipt whose
	// acknowledgement trails the test — and for their snapshots.
	t.TempDir()
	inproc := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = inproc.Close() })
	return &ruleFixture{
		t:     t,
		realm: testpki.MustRealm(client, server),
		net:   &snapNetwork{t: t, inner: inproc, dirs: make(map[string]string)},
		dir:   protocol.NewDirectory(),
	}
}

// process is one party's node over its vault.
type process struct {
	node *core.Node
	v    *vault.Vault
	dir  string
}

// start boots p over the vault directory vdir.
func (f *ruleFixture) start(p id.Party, vdir string) *process {
	f.t.Helper()
	v, err := vault.Open(vdir, f.realm.Clock)
	if err != nil {
		f.t.Fatal(err)
	}
	f.net.mu.Lock()
	f.net.dirs[string(p)] = vdir
	f.net.mu.Unlock()
	retry := testpki.FastRetry
	node, err := core.NewNode(core.NodeConfig{
		Party:     p,
		Signer:    f.realm.Party(p).Signer,
		Creds:     f.realm.Store,
		Clock:     f.realm.Clock,
		Network:   f.net,
		Addr:      string(p),
		Directory: f.dir,
		Log:       v,
		Retry:     &retry,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	proc := &process{node: node, v: v, dir: vdir}
	f.t.Cleanup(proc.kill)
	return proc
}

// kill stops the process; its vault directory is all that survives.
func (p *process) kill() {
	_ = p.node.Close()
	_ = p.v.Close()
}

const (
	nroGen     = string(evidence.KindNRO) + "/generated"
	nroRecv    = string(evidence.KindNRO) + "/received"
	nrrGen     = string(evidence.KindNRR) + "/generated"
	nrrRecv    = string(evidence.KindNRR) + "/received"
	nroRespGen = string(evidence.KindNROResp) + "/generated"
	nroRespRcv = string(evidence.KindNROResp) + "/received"
	nrrRespGen = string(evidence.KindNRRResp) + "/generated"
	nrrRespRcv = string(evidence.KindNRRResp) + "/received"
)

// ruleFor is R1 and R2 applied to one handoff: what the sender's disk
// must hold when this message leaves. The sent tokens (R1) and the
// evidence they answer (R2) are both in it.
func ruleFor(h handoff, proto string) []string {
	switch {
	case h.party == string(client) && h.env == envRequest:
		return []string{nroGen}
	case h.party == string(server) && h.env == envReply && proto == invoke.ProtocolVoluntary:
		return []string{nroRecv, nrrGen}
	case h.party == string(server) && h.env == envReply:
		return []string{nroRecv, nrrGen, nroRespGen}
	case h.party == string(client) && h.env == envDeliver:
		return []string{nrrRecv, nroRespRcv, nrrRespGen}
	case h.party == string(server) && h.env == envAck:
		return []string{nrrRespRcv}
	}
	return nil
}

// checkRule asserts R1/R2 on every handoff, and that the tokens found on
// disk are the run's own (the ones the caller was handed as evidence).
func checkRule(t *testing.T, handoffs []handoff, proto string, evidenceOf map[evidence.Kind]*evidence.Token) {
	t.Helper()
	for i, h := range handoffs {
		want := ruleFor(h, proto)
		if want == nil {
			t.Fatalf("handoff %d: unexpected message %q from %s", i, h.env, h.party)
		}
		for _, w := range want {
			found := false
			for _, have := range h.held {
				found = found || have == w
			}
			if !found {
				t.Fatalf("handoff %d (%s hands over %q): its disk holds %v, the rule requires %s", i, h.party, h.env, h.held, w)
			}
		}
		for _, tok := range h.toks {
			if h.party == string(server) && tok.Kind == evidence.KindNRRResp {
				// A resumed client that lost its receipt with a torn tail
				// issues a second one; the server keeps the first it got.
				continue
			}
			if ref := evidenceOf[tok.Kind]; ref != nil && string(ref.Signature.Bytes) != string(tok.Signature.Bytes) {
				t.Fatalf("handoff %d: %s on %s's disk is not the run's token", i, tok.Kind, h.party)
			}
		}
	}
}

func byKind(toks []*evidence.Token) map[evidence.Kind]*evidence.Token {
	m := make(map[evidence.Kind]*evidence.Token, len(toks))
	for _, tok := range toks {
		m[tok.Kind] = tok
	}
	return m
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDurabilityRuleHoldsAtEveryHandoff drives each exchange once and
// checks the copy taken at every message: the exact disk state the four
// commit groups promise, which implies R1 and R2.
func TestDurabilityRuleHoldsAtEveryHandoff(t *testing.T) {
	t.Parallel()
	type step struct {
		party id.Party
		env   string
		held  []string
	}
	symmetric := []step{
		{client, envRequest, []string{nroGen}},
		{server, envReply, []string{nroRecv, nrrGen, nroRespGen}},
		{client, envDeliver, []string{nroGen, nrrRecv, nroRespRcv, nrrRespGen}},
		{server, envAck, []string{nroRecv, nrrGen, nroRespGen, nrrRespRcv}},
	}
	cases := []struct {
		name    string
		proto   string
		cliOpts []invoke.ClientOption
		srvOpts []invoke.ServerOption
		resume  bool
		want    []step
		// atReturn is the client's disk when the result reaches the caller.
		atReturn []string
	}{
		{name: "direct", proto: invoke.ProtocolDirect, want: symmetric,
			atReturn: []string{nroGen, nrrRecv, nroRespRcv, nrrRespGen}},
		{name: "fair", proto: invoke.ProtocolFair, want: symmetric,
			cliOpts:  []invoke.ClientOption{invoke.WithOfflineTTP("urn:ttp:none")},
			srvOpts:  []invoke.ServerOption{invoke.ForProtocol(invoke.ProtocolFair)},
			atReturn: []string{nroGen, nrrRecv, nroRespRcv, nrrRespGen}},
		{name: "resume", proto: invoke.ProtocolDirect, resume: true, want: symmetric,
			atReturn: []string{nroGen, nrrRecv, nroRespRcv, nrrRespGen}},
		{name: "voluntary", proto: invoke.ProtocolVoluntary,
			cliOpts: []invoke.ClientOption{invoke.WithProtocol(invoke.ProtocolVoluntary)},
			srvOpts: []invoke.ServerOption{invoke.ForProtocol(invoke.ProtocolVoluntary), invoke.WithVoluntaryReceipt()},
			want: []step{
				{client, envRequest, []string{nroGen}},
				{server, envReply, []string{nroRecv, nrrGen}},
			},
			atReturn: []string{nroGen, nrrRecv}},
		{name: "withheld-receipt", proto: invoke.ProtocolDirect,
			cliOpts:  []invoke.ClientOption{invoke.WithholdReceipt()},
			want:     symmetric[:2],
			atReturn: []string{nroGen, nrrRecv, nroRespRcv}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := newRuleFixture(t)
			cp, sp := f.start(client, t.TempDir()), f.start(server, t.TempDir())
			exec, _ := echoExec()
			srv := invoke.NewServer(sp.node.Coordinator(), exec, tc.srvOpts...)
			defer srv.Close()
			cli := invoke.NewClient(cp.node.Coordinator(), tc.cliOpts...)

			var res *invoke.Result
			var err error
			if tc.resume {
				res, err = cli.Resume(context.Background(), server, orderRequest(), id.NewRun(), invoke.RunState{})
			} else {
				res, err = cli.Invoke(context.Background(), server, orderRequest())
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := diskState(t, cp.dir); !sameStrings(got, tc.atReturn) {
				t.Fatalf("client disk when the result is returned = %v, want %v", got, tc.atReturn)
			}
			f.net.waitFor(func(hs []handoff) bool { return len(hs) >= len(tc.want) })
			handoffs := f.net.take()
			if len(handoffs) != len(tc.want) {
				t.Fatalf("%d messages handed to the transport, want %d: %+v", len(handoffs), len(tc.want), handoffs)
			}
			for i, w := range tc.want {
				h := handoffs[i]
				if h.party != string(w.party) || h.env != w.env {
					t.Fatalf("message %d is %q from %s, want %q from %s", i, h.env, h.party, w.env, w.party)
				}
				if !sameStrings(h.held, w.held) {
					t.Fatalf("message %d (%q from %s): sender's disk holds %v, want %v", i, h.env, h.party, h.held, w.held)
				}
			}
			checkRule(t, handoffs, tc.proto, byKind(res.Evidence))
		})
	}
}

// resumeAndCheck restarts the client over vdir, resumes the run from what
// that journal holds, and checks the run completes under the rule with
// exactly one record of each kind.
func resumeAndCheck(t *testing.T, f *ruleFixture, vdir string, req invoke.Request, run id.Run, wantJournal []string) {
	t.Helper()
	cp := f.start(client, vdir)
	defer cp.kill()
	if got, _ := diskState(t, vdir); !sameStrings(got, wantJournal) {
		t.Fatalf("journal after the crash = %v, want %v", got, wantJournal)
	}
	f.net.take()
	res, err := invoke.NewClient(cp.node.Coordinator()).Resume(context.Background(), server, req, run, runStateOf(t, cp.v.ByRun(run)))
	if err != nil {
		t.Fatalf("Resume from %v: %v", wantJournal, err)
	}
	if res.Status != evidence.StatusOK || len(res.Evidence) != 4 {
		t.Fatalf("resumed result: status %v, %d tokens", res.Status, len(res.Evidence))
	}
	f.net.waitFor(receiptAcked)
	checkRule(t, f.net.take(), invoke.ProtocolDirect, byKind(res.Evidence))
	counts := map[evidence.Kind]int{}
	for _, rec := range cp.v.ByRun(run) {
		counts[rec.Token.Kind]++
	}
	for _, k := range []evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp} {
		if counts[k] != 1 {
			t.Fatalf("run holds %d %s records after resuming from %v, want exactly 1", counts[k], k, wantJournal)
		}
	}
	if err := cp.v.DeepVerify(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeCompletesFromEveryCrashState is the converse the grouping
// must not break: whatever a crash leaves on the client's disk — nothing,
// the NRO, the NRO and a prefix of the reply group, the whole group — a
// restarted client resumes the run to completion from a copy of it. The
// states come from the crash-hook points, whose names and order predate
// the groups: "mid-reply-append" and "pre-receipt" now fire before the one
// write of {NRR, NROResp, NRRResp} and leave what "post-reply-verify"
// does; the prefixes a write torn inside that group leaves are
// TestResumeCompletesFromTornGroup's.
func TestResumeCompletesFromEveryCrashState(t *testing.T) {
	t.Parallel()
	points := []struct {
		point   string
		journal []string
	}{
		{"pre-nro-append", nil},
		{"post-nro-append", []string{nroGen}},
		{"post-reply-verify", []string{nroGen}}, // before the group commit
		{"mid-reply-append", []string{nroGen}},
		{"pre-receipt", []string{nroGen}},
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.point, func(t *testing.T) {
			t.Parallel()
			f := newRuleFixture(t)
			cp, sp := f.start(client, t.TempDir()), f.start(server, t.TempDir())
			exec, calls := echoExec()
			srv := invoke.NewServer(sp.node.Coordinator(), exec)
			defer srv.Close()
			cli := invoke.NewClient(cp.node.Coordinator())
			errCrash := errors.New("simulated crash")
			var order []string
			cli.SetCrashHook(func(p string) error {
				order = append(order, p)
				if p == pt.point {
					return errCrash
				}
				return nil
			})
			run, req := id.NewRun(), orderRequest()
			if _, err := cli.Resume(context.Background(), server, req, run, invoke.RunState{}); !errors.Is(err, errCrash) {
				t.Fatalf("first attempt = %v, want the simulated crash", err)
			}
			if order[len(order)-1] != pt.point {
				t.Fatalf("hook points fired %v, want them to end at %s", order, pt.point)
			}
			// The machine dies; a copy of its disk is what restarts.
			image := copyVault(t, cp.dir)
			cp.kill()
			resumeAndCheck(t, f, image, req, run, pt.journal)
			if calls.Load() != 1 {
				t.Fatalf("executor ran %d times across the crash, want 1", calls.Load())
			}
		})
	}
}

// TestResumeCompletesFromTornGroup produces the torn states for real: a
// finished run's client vault is cut inside the {NRR, NROResp} group's
// frames, as a power loss during the group's one write would leave it.
// Open recovers the prefix and Resume completes from it.
func TestResumeCompletesFromTornGroup(t *testing.T) {
	t.Parallel()
	cuts := []struct {
		name    string
		keep    int // whole frames kept; the next one is cut in half
		journal []string
	}{
		{"inside-nrr", 1, []string{nroGen}},
		{"inside-nroresp", 2, []string{nroGen, nrrRecv}},
		{"inside-nrrresp", 3, []string{nroGen, nrrRecv, nroRespRcv}},
	}
	for _, cut := range cuts {
		cut := cut
		t.Run(cut.name, func(t *testing.T) {
			t.Parallel()
			f := newRuleFixture(t)
			cp, sp := f.start(client, t.TempDir()), f.start(server, t.TempDir())
			exec, calls := echoExec()
			srv := invoke.NewServer(sp.node.Coordinator(), exec)
			defer srv.Close()
			run, req := id.NewRun(), orderRequest()
			if _, err := invoke.NewClient(cp.node.Coordinator()).Resume(context.Background(), server, req, run, invoke.RunState{}); err != nil {
				t.Fatal(err)
			}
			image := copyVault(t, cp.dir)
			cp.kill()

			tail := filepath.Join(image, "seg-00000001.log")
			data, err := os.ReadFile(tail)
			if err != nil {
				t.Fatal(err)
			}
			ends := []int64{store.SegmentHeaderLen}
			if _, _, _, err := store.DecodeSegmentData(data, func(_ *store.Record, n int64) error {
				ends = append(ends, ends[len(ends)-1]+n)
				return nil
			}); err != nil || len(ends) != 5 {
				t.Fatalf("client tail holds %d frames (%v), want 4", len(ends)-1, err)
			}
			if err := os.Truncate(tail, ends[cut.keep]+(ends[cut.keep+1]-ends[cut.keep])/2); err != nil {
				t.Fatal(err)
			}
			resumeAndCheck(t, f, image, req, run, cut.journal)
			if calls.Load() != 1 {
				t.Fatalf("executor ran %d times, want 1", calls.Load())
			}
		})
	}
}
