package invoke

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/bounded"
	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// TestServerSettledRunsBounded is the regression test for the server's
// run table growing for the life of the process: after a thousand calls,
// a tenth of them with a streamed result, what the server still holds is
// bounded — by maxSettledRuns entries and maxSettledChunkBytes of result
// chunks — and within those bounds a retransmitted request, receipt or
// chunk fetch is still answered from the kept state, without executing
// or logging anything twice.
func TestServerSettledRunsBounded(t *testing.T) {
	const (
		clientParty = id.Party("urn:org:dealer")
		serverParty = id.Party("urn:org:manufacturer")
		calls       = 1000
		streamEvery = 10
		streamBytes = 512 << 10
	)
	d := testpki.MustDomain(clientParty, serverParty)
	defer d.Close()
	payload := bytes.Repeat([]byte("evidence"), streamBytes/8)
	var executed atomic.Int64
	srv := NewServer(d.Node(serverParty).Coordinator(), StreamExecutorFunc(
		func(_ context.Context, req *evidence.RequestSnapshot, _ map[string]io.Reader, results *ResultStreams) ([]evidence.Param, error) {
			executed.Add(1)
			if req.Operation == "Export" {
				if _, err := results.Writer("dump").Write(payload); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}))
	defer srv.Close()
	cli := NewClient(d.Node(clientParty).Coordinator())
	ctx := context.Background()

	var first, last, lastStreamed *Result
	for i := 0; i < calls; i++ {
		req := Request{Service: "urn:org:manufacturer/orders", Operation: "PlaceOrder"}
		if i%streamEvery == streamEvery-1 {
			req.Operation = "Export"
		}
		res, err := cli.Invoke(ctx, serverParty, req)
		if err != nil || res.Status != evidence.StatusOK {
			t.Fatalf("call %d: %v (%v)", i, err, res)
		}
		if req.Operation == "Export" {
			back, err := io.ReadAll(res.Stream("dump"))
			if err != nil || !bytes.Equal(back, payload) {
				t.Fatalf("call %d: streamed result: %d bytes, err %v", i, len(back), err)
			}
			lastStreamed = res
		}
		if err := srv.WaitReceipt(ctx, res.Run); err != nil {
			t.Fatalf("call %d: receipt: %v", i, err)
		}
		if first == nil {
			first = res
		}
		last = res
	}

	srv.mu.Lock()
	runs, settled, held := srv.open.Len()+srv.settled.Len(), srv.settled.Len(), srv.settledChunks.Bytes()
	var actual int64
	for _, rs := range srv.settled.All() {
		for _, chunks := range rs.resultChunks {
			for _, c := range chunks {
				actual += int64(len(c))
			}
		}
	}
	srv.mu.Unlock()
	if runs > maxSettledRuns || settled != runs {
		t.Fatalf("server holds %d runs (%d settled) after %d calls, bound %d", runs, settled, calls, maxSettledRuns)
	}
	if actual > maxSettledChunkBytes || held != actual {
		t.Fatalf("server holds %d result-chunk bytes (accounted %d), bound %d", actual, held, maxSettledChunkBytes)
	}
	if streamed := int64(calls/streamEvery) * streamBytes; streamed <= maxSettledChunkBytes {
		t.Fatalf("test streams %d bytes in all: not enough to reach the %d bound", streamed, maxSettledChunkBytes)
	}

	// Within the bound, retransmissions get the answer they got before.
	logged := d.Node(serverParty).Log().Len()
	ran := executed.Load()
	srv.mu.Lock()
	kept, _ := srv.keptLocked(last.Run)
	srv.mu.Unlock()
	if kept == nil {
		t.Fatal("the newest run was forgotten")
	}
	again, err := srv.ProcessRequest(ctx, &protocol.Message{Protocol: ProtocolDirect, Run: last.Run, Step: stepRequest, Kind: kindRequest})
	if err != nil || again != kept.reply {
		t.Fatalf("retried request = %v, %v, want the cached response", again, err)
	}
	receipt := &protocol.Message{Protocol: ProtocolDirect, Run: last.Run, Step: stepReceipt, Kind: kindReceipt,
		Tokens: []*evidence.Token{last.Evidence[len(last.Evidence)-1]}}
	if err := receipt.SetBody(receiptBody{Note: evidence.ReceiptNote{Run: last.Run, Client: clientParty, ResponseDigest: kept.respDigest}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Process(ctx, receipt); err != nil {
		t.Fatalf("retransmitted receipt: %v", err)
	}
	lastSeq := len(lastStreamed.Stream("dump").Ref().Chunks) - 1
	fetch := &protocol.Message{Protocol: ProtocolDirect, Run: lastStreamed.Run, Step: stepResponse, Kind: kindChunkFetch}
	if err := fetch.SetBody(chunkFetchBody{Run: lastStreamed.Run, Name: "dump", Seq: lastSeq}); err != nil {
		t.Fatal(err)
	}
	reply, err := srv.ProcessRequest(ctx, fetch)
	if err != nil {
		t.Fatalf("retransmitted chunk fetch: %v", err)
	}
	if data := reply.Attachment; !bytes.HasSuffix(payload, data) || len(data) == 0 {
		t.Fatalf("retransmitted chunk fetch returned %d bytes", len(data))
	}
	if got := d.Node(serverParty).Log().Len(); got != logged {
		t.Fatalf("retransmissions grew the evidence log from %d to %d records", logged, got)
	}
	if got := executed.Load(); got != ran {
		t.Fatalf("retransmissions executed the component %d more times", got-ran)
	}

	// Beyond the bound the run is gone, and says so.
	if _, _, err := srv.ReceiptState(first.Run); !errors.Is(err, ErrNoSuchRun) {
		t.Fatalf("oldest run after %d calls: %v, want ErrNoSuchRun", calls, err)
	}
}

// discardLog acknowledges appends without keeping them, so the heap the
// test watches is the server's, not the tail of a vault's.
type discardLog struct {
	store.Log
	n atomic.Uint64
}

func (l *discardLog) Append(dir store.Direction, tok *evidence.Token, note string) (*store.Record, error) {
	return &store.Record{Seq: l.n.Add(1), Direction: dir, Token: tok, Note: note}, nil
}

func (l *discardLog) AppendGroup(entries []store.Entry) ([]*store.Record, error) {
	recs := make([]*store.Record, len(entries))
	for i, e := range entries {
		recs[i], _ = l.Append(e.Dir, e.Token, e.Note)
	}
	return recs, nil
}

// nodesOver starts one node per party on a private in-process network,
// each over the log logFor returns, and returns the lookup.
func nodesOver(t *testing.T, logFor func(*testpki.Realm, id.Party) store.Log, parties ...id.Party) func(id.Party) *core.Node {
	t.Helper()
	realm := testpki.MustRealm(parties...)
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	dir := protocol.NewDirectory()
	nodes := make(map[id.Party]*core.Node)
	for _, p := range parties {
		retry := testpki.FastRetry
		n, err := core.NewNode(core.NodeConfig{
			Party: p, Signer: realm.Party(p).Signer, Creds: realm.Store, Clock: realm.Clock,
			Network: network, Addr: string(p), Directory: dir, Retry: &retry,
			Log: logFor(realm, p),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[p] = n
	}
	return func(p id.Party) *core.Node { return nodes[p] }
}

// TestServerOpenRunsBounded: a client that never sends its receipt costs
// the server one slot on a bounded FIFO, not memory for ever. Ten
// thousand withheld receipts leave exactly maxOpenRuns runs (the oldest
// evicted first, their cached replies released with them), a receipt
// arriving for an evicted run is refused with ErrNoSuchRun, and one for a
// run still held is accepted. The evictions are not silent: every one is
// counted, and the log names an evicted run — the first, then at most one
// per evictLogEvery — so the later refusal has an explanation.
func TestServerOpenRunsBounded(t *testing.T) {
	const (
		clientParty = id.Party("urn:org:dealer")
		serverParty = id.Party("urn:org:manufacturer")
		calls       = 10000
	)
	node := nodesOver(t, func(realm *testpki.Realm, _ id.Party) store.Log {
		return &discardLog{Log: testpki.Log(t, realm.Clock)}
	}, clientParty, serverParty)
	srv := NewServer(node(serverParty).Coordinator(), ExecutorFunc(
		func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) { return nil, nil }))
	defer srv.Close()
	srv.evicted = obs.NewRegistry().Counter(obs.MInvokeOpenRunsEvictedTotal, string(serverParty))
	// The test is serial, so no other test logs while the output is held.
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	honest := NewClient(node(clientParty).Coordinator())
	withholding := NewClient(honest.co, WithholdReceipt())
	ctx := context.Background()
	req := Request{Service: "urn:org:manufacturer/orders", Operation: "PlaceOrder"}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var first, last *Result
	var atCap uint64
	started := time.Now()
	for i := 0; i < calls; i++ {
		res, err := withholding.Invoke(ctx, serverParty, req)
		if err != nil || res.Status != evidence.StatusOK {
			t.Fatalf("call %d: %v (%v)", i, err, res)
		}
		if first == nil {
			first = res
		}
		last = res
		if i == calls/2 {
			atCap = heap() // maxOpenRuns < calls/2: the FIFO is full by now
		}
	}
	grown := int64(heap()) - int64(atCap)
	t.Logf("heap growth over the last %d calls: %d bytes", calls/2, grown)

	srv.mu.Lock()
	runs, open := srv.open.Len()+srv.settled.Len(), srv.open.Len()
	srv.mu.Unlock()
	if runs != maxOpenRuns || open != maxOpenRuns {
		t.Fatalf("server holds %d runs (%d on the open list) after %d withheld receipts, want %d", runs, open, calls, maxOpenRuns)
	}
	if maxOpenRuns >= calls/2 {
		t.Fatalf("test makes %d calls: not enough to fill the %d-run FIFO twice over", calls, maxOpenRuns)
	}
	// Another calls/2 runs arrived after the FIFO was full; unbounded they
	// pin ~3 KiB each (16 MiB here), bounded the heap moves by about one.
	if grown > 6<<20 {
		t.Fatalf("heap grew %d bytes over the last %d calls with the FIFO full", grown, calls/2)
	}

	if _, _, err := srv.ReceiptState(first.Run); !errors.Is(err, ErrNoSuchRun) {
		t.Fatalf("oldest unreceipted run: %v, want ErrNoSuchRun", err)
	}
	if got := srv.evicted.Value(); got != calls-maxOpenRuns {
		t.Fatalf("%s = %d, want %d", obs.MInvokeOpenRunsEvictedTotal, got, calls-maxOpenRuns)
	}
	// The first eviction is reported at once, with the run; the thousands
	// behind it inside the same evictLogEvery are not a line each.
	lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if !strings.Contains(lines[0], string(first.Run)) || !strings.Contains(lines[0], string(serverParty)) {
		t.Fatalf("first log line does not name the first evicted run %s: %q", first.Run, lines[0])
	}
	if max := 1 + int(time.Since(started)/evictLogEvery) + 1; len(lines) > max {
		t.Fatalf("%d evictions logged %d lines, want at most %d", calls-maxOpenRuns, len(lines), max)
	}
	receiptFor := func(res *Result) *protocol.Message {
		msg, err := honest.newReceipt(res.Run, "", serverParty, res.Evidence[2].Digest)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	if err := srv.Process(ctx, receiptFor(first)); !errors.Is(err, ErrNoSuchRun) {
		t.Fatalf("late receipt for an evicted run: %v, want ErrNoSuchRun", err)
	}
	if err := srv.Process(ctx, receiptFor(last)); err != nil {
		t.Fatalf("receipt for a run still held: %v", err)
	}
	srv.mu.Lock()
	runs, open, settled := srv.open.Len()+srv.settled.Len(), srv.open.Len(), srv.settled.Len()
	srv.mu.Unlock()
	if runs != maxOpenRuns || open != maxOpenRuns-1 || settled != 1 {
		t.Fatalf("after one receipt: %d runs, %d open, %d settled; want %d, %d, 1", runs, open, settled, maxOpenRuns, maxOpenRuns-1)
	}
}

// TestOpenRunEvictionLogOnCoordinatorClock: the log lines about evicted
// open runs are spaced by evictLogEvery on the coordinator's clock, not
// the wall clock. Two evictions inside one interval log one line; once the
// clock has moved on by evictLogEvery the next eviction logs again,
// counting the one left unreported.
func TestOpenRunEvictionLogOnCoordinatorClock(t *testing.T) {
	const relayParty = id.Party("urn:ttp:inline")
	d := testpki.MustDomain(relayParty)
	defer d.Close()
	relay := NewRelay(d.Node(relayParty).Coordinator(), RouteToServer())
	// The test is serial, so no other test logs while the output is held.
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	lines := func() []string { return strings.Split(strings.TrimSpace(logged.String()), "\n") }

	for i := 0; i < maxOpenRuns+2; i++ {
		relay.track(id.NewRun(), &relayRun{})
	}
	if got := lines(); len(got) != 1 {
		t.Fatalf("two evictions inside one interval logged %d lines: %q", len(got), got)
	}
	d.Realm.Clock.Advance(evictLogEvery)
	relay.track(id.NewRun(), &relayRun{})
	got := lines()
	if len(got) != 2 {
		t.Fatalf("an eviction after the clock moved on by %v logged %d lines in all, want 2: %q", evictLogEvery, len(got), got)
	}
	if !strings.Contains(got[1], "(2 dropped since the last report)") {
		t.Fatalf("second line does not count the unreported eviction: %q", got[1])
	}
}

// TestPendingStreamsBoundedByBytes: streamed-parameter chunks buffered
// ahead of their request hold no more than the pending table's byte bound
// in total, however many partial streams senders open, and the stream
// started last still completes its call.
func TestPendingStreamsBoundedByBytes(t *testing.T) {
	const bound = 3 * DefaultStreamChunk
	d := testpki.MustDomain(attClient, attServer)
	defer d.Close()
	var got []byte
	srv := NewServer(d.Node(attServer).Coordinator(), captureStreamExec(&got))
	defer srv.Close()
	srv.pending = bounded.New[string, *pendingStream](maxPendingStreams, bound, nil)
	ctx := context.Background()

	held := func() (n int64) {
		srv.streamMu.Lock()
		defer srv.streamMu.Unlock()
		for _, ps := range srv.pending.All() {
			n += ps.bytes
		}
		return n
	}
	part := make([]byte, DefaultStreamChunk/2)
	for i := 0; i < 32; i++ {
		msg := &protocol.Message{Protocol: ProtocolDirect, Run: id.NewRun(), Step: stepRequest, Kind: kindChunk,
			Sender: attClient, Attachment: part}
		if err := msg.SetBody(chunkBody{Stream: fmt.Sprintf("partial-%d", i), Seq: 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.ProcessRequest(ctx, msg); err != nil {
			t.Fatal(err)
		}
		if n := held(); n > bound {
			t.Fatalf("%d partial streams buffer %d bytes, bound %d", i+1, n, bound)
		}
	}

	payload := make([]byte, 2*DefaultStreamChunk+DefaultStreamChunk/2)
	rand.New(rand.NewSource(28)).Read(payload)
	cli := NewClient(d.Node(attClient).Coordinator())
	res, err := cli.Invoke(ctx, attServer, Request{Service: "urn:org:manufacturer/docs", Operation: "Archive",
		Streams: []Stream{StreamParam("doc", bytes.NewReader(payload))}})
	if err != nil || res.Status != evidence.StatusOK {
		t.Fatalf("stream started last: %v (%v)", err, res)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("executor read %d bytes, want the %d byte payload", len(got), len(payload))
	}
	if n := held(); n > bound {
		t.Fatalf("streams buffer %d bytes, bound %d", n, bound)
	}
}

// failingVault is a vault whose group append fails while failing is set:
// before anything is written (a broken disk), or, with afterWrite, once
// the group is locally durable — what georep.GatedLog returns with
// ErrQuorumUnmet when the replicas do not acknowledge in time.
type failingVault struct {
	*vault.Vault
	failing    atomic.Bool
	afterWrite bool
}

func (l *failingVault) AppendGroup(entries []store.Entry) ([]*store.Record, error) {
	if !l.failing.Load() {
		return l.Vault.AppendGroup(entries)
	}
	if !l.afterWrite {
		return nil, errors.New("log unavailable")
	}
	recs, err := l.Vault.AppendGroup(entries)
	if err != nil {
		return nil, err
	}
	return recs, errors.New("quorum unmet")
}

// TestServerExecutesOnceWhenLogFails: the component runs before the step's
// evidence commits, so a commit that fails must not cost at-most-once
// execution. The run is kept; a retransmitted request retries the commit
// alone — same tokens, no second execution — and the reply leaves only
// once a commit succeeded.
func TestServerExecutesOnceWhenLogFails(t *testing.T) {
	const (
		clientParty = id.Party("urn:org:dealer")
		serverParty = id.Party("urn:org:manufacturer")
	)
	for _, tc := range []struct {
		name       string
		afterWrite bool
		wantEach   int // records of each kind once a commit succeeded
	}{
		{"before-write", false, 1},
		{"after-write", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var flog *failingVault
			node := nodesOver(t, func(realm *testpki.Realm, p id.Party) store.Log {
				if p != serverParty {
					return testpki.Log(t, realm.Clock)
				}
				v, err := vault.Open(t.TempDir(), realm.Clock)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = v.Close() })
				flog = &failingVault{Vault: v, afterWrite: tc.afterWrite}
				return flog
			}, clientParty, serverParty)
			var executed atomic.Int64
			srv := NewServer(node(serverParty).Coordinator(), ExecutorFunc(
				func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) {
					executed.Add(1)
					return nil, nil
				}))
			defer srv.Close()

			run := id.NewRun()
			snap := evidence.RequestSnapshot{Run: run, Client: clientParty, Server: serverParty,
				Service: "urn:org:manufacturer/orders", Operation: "PlaceOrder", Protocol: ProtocolDirect}
			digest, err := snap.Digest()
			if err != nil {
				t.Fatal(err)
			}
			nro, err := node(clientParty).Coordinator().Services().Issuer.Issue(evidence.KindNRO, run, stepRequest, digest,
				evidence.WithService(snap.Service), evidence.WithRecipients(serverParty))
			if err != nil {
				t.Fatal(err)
			}
			msg := NewRequestMessage(ProtocolDirect, run, snap, nro)
			msg.Sender = clientParty
			ctx := context.Background()

			flog.failing.Store(true)
			for i := 0; i < 2; i++ {
				if reply, err := srv.ProcessRequest(ctx, msg); err == nil {
					t.Fatalf("attempt %d: reply %v left with its evidence uncommitted", i, reply)
				}
			}
			flog.failing.Store(false)
			reply, err := srv.ProcessRequest(ctx, msg)
			if err != nil {
				t.Fatalf("retransmission with the log healthy: %v", err)
			}
			if got := executed.Load(); got != 1 {
				t.Fatalf("component executed %d times over three deliveries, want 1", got)
			}
			again, err := srv.ProcessRequest(ctx, msg)
			if err != nil || again != reply {
				t.Fatalf("fourth delivery = %v, %v, want the cached reply", again, err)
			}

			// Every commit attempt wrote the same three tokens.
			kinds := make(map[evidence.Kind]int)
			for _, rec := range testpki.Query(t, flog, store.Query{Run: run}) {
				kinds[rec.Token.Kind]++
				want := nro
				if rec.Token.Kind != evidence.KindNRO {
					want = reply.Token(rec.Token.Kind)
				}
				if want == nil || rec.Token.Nonce != want.Nonce {
					t.Fatalf("log holds a %s the reply does not carry", rec.Token.Kind)
				}
			}
			for _, k := range []evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp} {
				if kinds[k] != tc.wantEach {
					t.Fatalf("log holds %d %s records, want %d (%v)", kinds[k], k, tc.wantEach, kinds)
				}
			}
			if len(kinds) != 3 {
				t.Fatalf("log holds kinds %v, want NRO, NRR, NROResp only", kinds)
			}
		})
	}
}

// TestRelayRunsBounded is the regression test for the relay's run table
// growing by one entry per relayed call: a run is forgotten once its
// receipt is forwarded, and the runs whose receipt never comes are kept
// within maxOpenRuns, oldest dropped first — counted and logged, as the
// server's are.
func TestRelayRunsBounded(t *testing.T) {
	const (
		clientParty = id.Party("urn:org:dealer")
		serverParty = id.Party("urn:org:manufacturer")
		relayParty  = id.Party("urn:ttp:inline")
	)
	d := testpki.MustDomain(clientParty, serverParty, relayParty)
	defer d.Close()
	srv := NewServer(d.Node(serverParty).Coordinator(), ExecutorFunc(
		func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) { return nil, nil }))
	defer srv.Close()
	relay := NewRelay(d.Node(relayParty).Coordinator(), RouteToServer())
	relay.evicted = obs.NewRegistry().Counter(obs.MInvokeOpenRunsEvictedTotal, string(relayParty))
	// The test is serial, so no other test logs while the output is held.
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	openRuns := func() int {
		relay.mu.Lock()
		defer relay.mu.Unlock()
		return relay.runs.Len()
	}
	ctx := context.Background()
	req := Request{Service: "urn:org:manufacturer/orders", Operation: "PlaceOrder"}

	cli := NewClient(d.Node(clientParty).Coordinator(), Via(relayParty))
	for i := 0; i < 5; i++ {
		if _, err := cli.Invoke(ctx, serverParty, req); err != nil {
			t.Fatal(err)
		}
	}
	// A receipt is one-way: the relay forgets its run once the forward
	// returns, which may trail the client's return.
	for deadline := time.Now().Add(5 * time.Second); openRuns() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("relay still holds %d runs after every receipt was forwarded", openRuns())
		}
	}

	withholding := NewClient(d.Node(clientParty).Coordinator(), Via(relayParty), WithholdReceipt())
	first, err := withholding.Invoke(ctx, serverParty, req)
	if err != nil {
		t.Fatal(err)
	}
	last, err := withholding.Invoke(ctx, serverParty, req)
	if err != nil {
		t.Fatal(err)
	}
	// maxOpenRuns+1 unreceipted runs in all: the rest are entered the way
	// a relayed reply enters them.
	for i := 2; i <= maxOpenRuns; i++ {
		relay.track(id.NewRun(), &relayRun{})
	}
	if got := openRuns(); got != maxOpenRuns {
		t.Fatalf("relay holds %d unreceipted runs, want %d", got, maxOpenRuns)
	}
	relay.mu.Lock()
	_, keptFirst := relay.runs.Get(first.Run)
	_, keptLast := relay.runs.Get(last.Run)
	relay.mu.Unlock()
	if keptFirst || !keptLast {
		t.Fatalf("kept oldest = %v, kept second = %v; want the oldest dropped first", keptFirst, keptLast)
	}
	if got := relay.evicted.Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MInvokeOpenRunsEvictedTotal, got)
	}
	if line := logged.String(); !strings.Contains(line, string(first.Run)) || !strings.Contains(line, string(relayParty)) {
		t.Fatalf("eviction log does not name the relay and the dropped run %s: %q", first.Run, line)
	}
}
