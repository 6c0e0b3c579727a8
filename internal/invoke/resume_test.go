package invoke_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// runStateFromLog rebuilds the invoke.RunState a resumed job would
// recover from the caller's evidence log, the way the durable journal
// does: one token of each kind, plus the response snapshot parsed from
// the NROResp record's note.
func runStateFromLog(t *testing.T, d *testpki.Domain, p id.Party, run id.Run) invoke.RunState {
	t.Helper()
	return runStateOf(t, testpki.Query(t, d.Node(p).Log(), store.Query{Run: run}))
}

// runStateOf is runStateFromLog over a run's records.
func runStateOf(t *testing.T, recs []*store.Record) invoke.RunState {
	t.Helper()
	var st invoke.RunState
	for _, rec := range recs {
		switch rec.Token.Kind {
		case evidence.KindNRO:
			st.NRO = rec.Token
		case evidence.KindNRR:
			st.NRR = rec.Token
		case evidence.KindNROResp:
			st.NROResp = rec.Token
			if strings.HasPrefix(rec.Note, "{") {
				var snap evidence.ResponseSnapshot
				if err := canon.Unmarshal([]byte(rec.Note), &snap); err != nil {
					t.Fatalf("parse journaled response snapshot: %v", err)
				}
				st.Response = &snap
			}
		case evidence.KindNRRResp:
			st.NRRResp = rec.Token
		}
	}
	return st
}

func TestResumeFreshRun(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	run := id.NewRun()
	res, err := cli.Resume(context.Background(), server, orderRequest(), run, invoke.RunState{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run != run {
		t.Fatalf("result run = %s, want the caller-fixed %s", res.Run, run)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times", calls.Load())
	}
	if len(res.Evidence) != 4 {
		t.Fatalf("client holds %d tokens, want 4", len(res.Evidence))
	}
	log := d.Node(client).Log()
	if got := len(testpki.Query(t, log, store.Query{Run: run})); got != 4 {
		t.Fatalf("client log holds %d records for the run, want 4", got)
	}
	if err := log.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeAfterCrashPoints kills the exchange at each journaling
// boundary, then resumes from the evidence the log holds. However the
// first attempt died, the resumed run must end with exactly one token of
// each kind — never a duplicate — and at most one execution.
func TestResumeAfterCrashPoints(t *testing.T) {
	t.Parallel()
	points := []string{"post-nro-append", "post-reply-verify", "mid-reply-append", "pre-receipt"}
	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			t.Parallel()
			d := testpki.MustDomain(client, server)
			defer d.Close()
			exec, calls := echoExec()
			srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
			defer srv.Close()
			cli := invoke.NewClient(d.Node(client).Coordinator())

			errCrash := errors.New("simulated crash")
			cli.SetCrashHook(func(p string) error {
				if p == point {
					return errCrash
				}
				return nil
			})
			run := id.NewRun()
			req := orderRequest()
			if _, err := cli.Resume(context.Background(), server, req, run, invoke.RunState{}); !errors.Is(err, errCrash) {
				t.Fatalf("first attempt = %v, want the simulated crash", err)
			}

			cli.SetCrashHook(nil)
			st := runStateFromLog(t, d, client, run)
			res, err := cli.Resume(context.Background(), server, req, run, st)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != evidence.StatusOK {
				t.Fatalf("status = %v (%s)", res.Status, res.Err)
			}
			if calls.Load() > 1 {
				t.Fatalf("executor ran %d times across the crash, want at most 1", calls.Load())
			}
			counts := map[evidence.Kind]int{}
			for _, rec := range testpki.Query(t, d.Node(client).Log(), store.Query{Run: run}) {
				counts[rec.Token.Kind]++
			}
			for _, k := range []evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp} {
				if counts[k] != 1 {
					t.Fatalf("run holds %d %s records, want exactly 1 (counts: %v)", counts[k], k, counts)
				}
			}
			if err := d.Node(client).Log().VerifyChain(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResumeCompletedRun resumes a run whose whole exchange survived in
// the journal: nothing is re-sent, the recovered response is returned
// after its digest is checked against the signed NROResp.
func TestResumeCompletedRun(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	run := id.NewRun()
	req := orderRequest()
	if _, err := cli.Resume(context.Background(), server, req, run, invoke.RunState{}); err != nil {
		t.Fatal(err)
	}
	st := runStateFromLog(t, d, client, run)
	if st.Response == nil || st.NRRResp == nil {
		t.Fatal("journal missing recovered response or receipt")
	}

	res, err := cli.Resume(context.Background(), server, req, run, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1 (completed run must not re-execute)", calls.Load())
	}
	if len(res.Evidence) != 4 {
		t.Fatalf("resumed result holds %d tokens, want 4", len(res.Evidence))
	}
}

func TestResumeRejectsMismatchedEvidence(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	run := id.NewRun()
	req := orderRequest()
	if _, err := cli.Resume(context.Background(), server, req, run, invoke.RunState{}); err != nil {
		t.Fatal(err)
	}
	st := runStateFromLog(t, d, client, run)

	// A journaled NRO covering a different request is rejected before
	// anything is sent.
	other := req
	other.Operation = "SomethingElse"
	if _, err := cli.Resume(context.Background(), server, other, run, st); !errors.Is(err, invoke.ErrEvidenceInvalid) {
		t.Fatalf("mismatched NRO: err = %v, want ErrEvidenceInvalid", err)
	}

	// A recovered response that does not match the signed NROResp is
	// rejected too.
	tampered := *st.Response
	tampered.Error = "forged failure"
	st2 := st
	st2.Response = &tampered
	if _, err := cli.Resume(context.Background(), server, req, run, st2); !errors.Is(err, invoke.ErrEvidenceInvalid) {
		t.Fatalf("tampered recovery: err = %v, want ErrEvidenceInvalid", err)
	}
}

func TestResumeUnsupportedShapes(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	req := orderRequest()
	req.Streams = []invoke.Stream{{Name: "blob"}}
	if _, err := cli.Resume(context.Background(), server, req, id.NewRun(), invoke.RunState{}); err == nil {
		t.Fatal("streamed request was accepted for resume")
	}

	vol := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithProtocol(invoke.ProtocolVoluntary))
	if _, err := vol.Resume(context.Background(), server, orderRequest(), id.NewRun(), invoke.RunState{}); err == nil {
		t.Fatal("voluntary protocol was accepted for resume")
	}
}

// TestResumeFairAbortsWhenServerUnreachable exercises the fair-protocol
// branch of Resume: a failed re-submission aborts at the TTP, exactly as
// Invoke would.
func TestResumeFairAbortsWhenServerUnreachable(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, ttp)
	defer d.Close()
	resolver := invoke.NewResolveService(d.Node(ttp).Coordinator())
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithOfflineTTP(ttp))

	if _, err := d.Realm.AddParty(server); err != nil {
		t.Fatal(err)
	}
	d.Directory.Register(server, string(server))

	run := id.NewRun()
	_, err := cli.Resume(context.Background(), server, orderRequest(), run, invoke.RunState{})
	if !errors.Is(err, invoke.ErrAborted) {
		t.Fatalf("Resume = %v, want ErrAborted", err)
	}
	if decided, resolved := resolver.Decision(run); !decided || resolved {
		t.Fatalf("TTP decision = %v,%v, want decided+aborted", decided, resolved)
	}
}

type capturingAbortJournal struct {
	mu    sync.Mutex
	calls int
	run   id.Run
}

func (j *capturingAbortJournal) JournalAbort(_ context.Context, _ id.Party, snap evidence.RequestSnapshot, nro *evidence.Token) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if nro == nil {
		return fmt.Errorf("journaled abort without NRO")
	}
	j.calls++
	j.run = snap.Run
	return nil
}

// TestAbortJournaledWhenTTPUnreachable: when both the server and the TTP
// are down, an installed abort journal turns the dead-end into
// ErrAbortPending — the abort's fate is decided by the durable retry, not
// abandoned.
func TestAbortJournaledWhenTTPUnreachable(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client)
	defer d.Close()
	journal := &capturingAbortJournal{}
	cli := invoke.NewClient(d.Node(client).Coordinator(),
		invoke.WithOfflineTTP(ttp), invoke.WithAbortJournal(journal))

	for _, p := range []id.Party{server, ttp} {
		if _, err := d.Realm.AddParty(p); err != nil {
			t.Fatal(err)
		}
		d.Directory.Register(p, string(p))
	}

	_, err := cli.Invoke(context.Background(), server, orderRequest())
	if !errors.Is(err, invoke.ErrAbortPending) {
		t.Fatalf("Invoke = %v, want ErrAbortPending", err)
	}
	journal.mu.Lock()
	defer journal.mu.Unlock()
	if journal.calls != 1 {
		t.Fatalf("abort journaled %d times, want 1", journal.calls)
	}
}

// TestAbortAlreadyResolved: an abort that reaches the TTP after the run
// was resolved can never be granted; the caller learns that via
// ErrAlreadyResolved rather than retrying forever.
func TestAbortAlreadyResolved(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec,
		invoke.ForProtocol(invoke.ProtocolFair),
		invoke.WithRecovery(ttp, 30*time.Millisecond))
	defer srv.Close()
	resolver := invoke.NewResolveService(d.Node(ttp).Coordinator())
	cli := invoke.NewClient(d.Node(client).Coordinator(),
		invoke.WithOfflineTTP(ttp), invoke.WithholdReceipt())

	req := orderRequest()
	res, err := cli.Invoke(context.Background(), server, req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if decided, resolved := resolver.Decision(res.Run); decided && resolved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never resolved the withheld receipt")
		}
		time.Sleep(5 * time.Millisecond)
	}

	snap := evidence.RequestSnapshot{
		Run:       res.Run,
		Txn:       req.Txn,
		Client:    client,
		Server:    server,
		Service:   req.Service,
		Operation: req.Operation,
		Params:    req.Params,
		Protocol:  invoke.ProtocolFair,
	}
	err = cli.Abort(context.Background(), ttp, snap, res.Evidence[0])
	if !errors.Is(err, invoke.ErrAlreadyResolved) {
		t.Fatalf("Abort = %v, want ErrAlreadyResolved", err)
	}
}

// TestAbortGranted: aborting an unstarted fair run earns the affidavit,
// and a duplicate abort sees the same decision.
func TestAbortGranted(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, ttp)
	defer d.Close()
	resolver := invoke.NewResolveService(d.Node(ttp).Coordinator())
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithOfflineTTP(ttp))

	svc := d.Node(client).Services()
	req := orderRequest()
	run := id.NewRun()
	snap := evidence.RequestSnapshot{
		Run:       run,
		Txn:       req.Txn,
		Client:    client,
		Server:    server,
		Service:   req.Service,
		Operation: req.Operation,
		Params:    req.Params,
		Protocol:  invoke.ProtocolFair,
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := svc.Issuer.Issue(evidence.KindNRO, run, 1, reqDigest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := cli.Abort(context.Background(), ttp, snap, nro); err != nil {
			t.Fatalf("abort %d: %v", i, err)
		}
	}
	if decided, resolved := resolver.Decision(run); !decided || resolved {
		t.Fatalf("TTP decision = %v,%v, want decided+aborted", decided, resolved)
	}
}
