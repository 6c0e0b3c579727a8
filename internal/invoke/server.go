package invoke

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"nonrep/internal/bounded"
	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// Server is the server-side B2BInvocationHandler (section 4.2): it
// verifies the client's evidence, passes the request to the component for
// execution "at the appropriate point during execution of the
// non-repudiation protocol", and completes the evidence exchange. One
// Server instance is registered per protocol variant.
type Server struct {
	co   *protocol.Coordinator
	exec Executor
	d    *descriptor

	execTimeout      time.Duration
	voluntaryReceipt bool
	ttp              id.Party
	receiptTimeout   time.Duration

	mu sync.Mutex
	// open holds the runs answered but not yet settled — the receipt
	// outstanding, or a result stream not fetched to its end. Runs it
	// evicts are counted in evicted.
	open    *bounded.Table[id.Run, *serverRun]
	evicted *obs.Counter
	// settled holds the runs whose exchange is over — the receipt (or its
	// TTP substitute) logged and every result stream served to its last
	// chunk. They stay only to answer retransmissions idempotently.
	// settledChunks is charged with the result chunks those runs keep for
	// retransmitted fetches; the runs it evicts release their chunks.
	settled       *bounded.Table[id.Run, *serverRun]
	settledChunks *bounded.Table[id.Run, *serverRun]

	// pending buffers inbound streamed-parameter chunks until the request
	// whose signed evidence binds them arrives; keyed by sender and
	// stream identifier, charged with the bytes each stream buffers.
	streamMu sync.Mutex
	pending  *bounded.Table[string, *pendingStream]

	wg     sync.WaitGroup
	closed chan struct{}
}

// pendingStream is one buffered inbound chunk stream.
type pendingStream struct {
	chunks [][]byte
	bytes  int64
}

// streamKey scopes a stream identifier to its (claimed) sender.
func streamKey(sender id.Party, stream string) string {
	return string(sender) + "\x00" + stream
}

var _ protocol.Handler = (*Server)(nil)

// Bounds on the runs the server keeps. Like pending inbound streams, runs
// are evicted oldest first; nothing here is evidence — that is in the
// log — only the means to repeat an answer or accept a late receipt.
const (
	// maxOpenRuns bounds the runs whose exchange is not over: a client
	// that never sends its receipt (or never fetches a result stream)
	// costs the server, and each relay on the way, one slot (newOpenRuns),
	// not memory for ever. A receipt arriving for a run evicted here is
	// refused with ErrNoSuchRun; the run's NRO, NRR and NROResp are in the
	// log regardless, and the eviction is counted
	// (obs.MInvokeOpenRunsEvictedTotal) and logged with the run, so the
	// refusal can be explained.
	maxOpenRuns = 4096
	// logEvery spaces the log lines about evicted runs and undelivered
	// receipts: a client withholding every receipt evicts one run per
	// call, and a server refusing receipts refuses one per call.
	logEvery = 10 * time.Second
	// maxSettledRuns bounds the settled runs whose cached response and
	// receipt state are kept for retransmitted requests and receipts.
	maxSettledRuns = 256
	// maxSettledChunkBytes bounds the streamed-result chunks settled
	// runs keep, in total, for retransmitted chunk fetches.
	maxSettledChunkBytes = 32 << 20
)

// serverRun is the per-run state the server keeps: everything between
// response and receipt, and after the exchange settles only what a
// retransmission needs answered.
type serverRun struct {
	// anchors are the run's NRO, NRR and NROResp, what its receipt and a
	// TTP's decision bind to.
	anchors  evidence.Anchors
	reqSnap  evidence.RequestSnapshot
	respSnap evidence.ResponseSnapshot
	// reply is the response message, returned again to a retried request
	// (at-most-once execution).
	reply *protocol.Message
	// receiptless marks a protocol variant with no step 3: the exchange
	// is over once the response is out.
	receiptless bool
	// unlogged holds, under logMu, the step's evidence group until it
	// commits; the reply leaves only once it is nil (see answer).
	logMu    sync.Mutex
	unlogged []store.Entry

	// Guarded by Server.mu: resultChunks holds the run's streamed results
	// for chunk-fetch serving, keyed by stream name (chunkBytes in total);
	// unserved counts the streams whose last chunk has not been fetched
	// yet; settled marks a run already in Server.settled.
	resultChunks map[string][][]byte
	chunkBytes   int64
	served       map[string]bool
	unserved     int
	settled      bool

	receiptOnce sync.Once
	receipt     chan struct{}
	resolveOnce sync.Once
	// receiptMu serialises receipt processing for the run, so a receipt
	// retransmitted while the first copy is still being logged waits and
	// is then recognised as a duplicate rather than logged twice.
	receiptMu sync.Mutex

	mu       sync.Mutex
	resolved bool
	consumed *evidence.Consumption
}

// over reports whether the run's evidence exchange has ended.
func (r *serverRun) over() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.receiptless || r.consumed != nil || r.resolved
}

// markReceipt records arrival of the client's receipt.
func (r *serverRun) markReceipt(con evidence.Consumption) {
	r.mu.Lock()
	r.consumed = &con
	r.mu.Unlock()
	r.receiptOnce.Do(func() { close(r.receipt) })
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// ForProtocol selects the protocol variant the server executes (default
// ProtocolDirect).
func ForProtocol(name string) ServerOption {
	return func(s *Server) { s.d, _ = protocolFor(name) }
}

// WithExecTimeout sets the agreed execution timeout after which the
// interceptor generates timeout evidence instead of a result
// (section 3.2).
func WithExecTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.execTimeout = d }
}

// WithVoluntaryReceipt makes a ProtocolVoluntary server return a signed
// receipt for the request (the "voluntary non-repudiation" of the Web
// Services proposal discussed in section 5).
func WithVoluntaryReceipt() ServerOption {
	return func(s *Server) { s.voluntaryReceipt = true }
}

// WithRecovery configures ProtocolFair recovery: if the client's receipt
// does not arrive within d, the server asks the offline TTP for a
// substitute receipt.
func WithRecovery(ttp id.Party, d time.Duration) ServerOption {
	return func(s *Server) {
		s.ttp = ttp
		s.receiptTimeout = d
	}
}

// NewServer creates a server handler executing requests through exec and
// registers it with the coordinator.
func NewServer(co *protocol.Coordinator, exec Executor, opts ...ServerOption) *Server {
	s := &Server{
		co:          co,
		exec:        exec,
		d:           direct,
		execTimeout: DefaultExecTimeout,
		evicted:     co.Services().Obs.Counter(obs.MInvokeOpenRunsEvictedTotal),
		pending:     bounded.New[string, *pendingStream](maxPendingStreams, DefaultMaxStreamBytes, nil),
		closed:      make(chan struct{}),
	}
	s.open = newOpenRuns[*serverRun](co.Services(), func() *obs.Counter { return s.evicted })
	s.settledChunks = bounded.New(0, maxSettledChunkBytes, func(_ id.Run, rs *serverRun) { rs.resultChunks = nil })
	s.settled = bounded.New(maxSettledRuns, 0, func(run id.Run, _ *serverRun) { s.settledChunks.Delete(run) })
	for _, opt := range opts {
		opt(s)
	}
	co.Register(s)
	return s
}

// Protocol implements protocol.Handler.
func (s *Server) Protocol() string { return s.d.name }

// ProcessRequest implements protocol.Handler: it executes steps 1 and 2 of
// the exchange, absorbs streamed-parameter chunks delivered ahead of a
// request, serves streamed-result chunk fetches after a response, and
// takes step 3, the client's response receipt, answering it with nil.
func (s *Server) ProcessRequest(ctx context.Context, msg *protocol.Message) (*protocol.Message, error) {
	switch msg.Kind {
	case kindChunk:
		return s.processChunk(msg)
	case kindChunkFetch:
		return s.processChunkFetch(msg)
	case kindReceipt:
		return nil, s.processReceipt(ctx, msg)
	case kindRequest:
	default:
		return nil, fmt.Errorf("invoke: unexpected request kind %q", msg.Kind)
	}
	// At-most-once: a retried request returns the original response.
	if done, err := s.kept(msg.Run); err == nil {
		return s.answer(ctx, msg.Run, done)
	}

	svc := s.co.Services()
	var rb requestBody
	if err := msg.Body(&rb); err != nil {
		return nil, err
	}
	snap := rb.Snapshot
	// The request is passed to the server only if the client provides
	// valid NRO of the request (section 3.2).
	nro := msg.Token(evidence.KindNRO)
	a, err := checkRequest(svc.Verifier, s.d, msg.Run, &snap, nro)
	if err != nil {
		return nil, err
	}
	// R2: the request origin need not be durable before the server acts
	// on it, only before anything issued in answer to it leaves — so it
	// commits together with the reply tokens, one fsync for the step. A
	// request refused or failed before an answer exists keeps its
	// verified NRO alone, evidence of the attempt.
	received := store.Entry{Dir: store.Received, Token: nro, Note: "request origin"}
	rs, issued, err := s.respond(ctx, msg, &snap, a)
	if err != nil {
		if lerr := logGroup(ctx, svc, received); lerr != nil {
			return nil, lerr
		}
		return nil, err
	}
	rs.unlogged = append([]store.Entry{received}, issued...)

	// The run is kept from the moment the component ran, not from the
	// moment its evidence committed: if the commit fails, a retransmitted
	// request finds the run and retries the commit alone (answer), so the
	// component executes at most once whatever the log does.
	s.mu.Lock()
	s.settleLocked(msg.Run, rs)
	if !rs.settled {
		s.open.Put(msg.Run, rs)
	}
	s.mu.Unlock()
	return s.answer(ctx, msg.Run, rs)
}

// newOpenRuns returns the table of runs a Server or Relay answered whose
// receipt is still outstanding, within maxOpenRuns. A run it evicts is
// forgotten; its evidence stays in the party's log, and what goes is the
// means to accept its receipt, so the eviction is counted on evicted() and
// — not more often than every logEvery on the coordinator's clock —
// logged with the run's id: the later ErrNoSuchRun for that receipt then
// has an explanation on record.
func newOpenRuns[V any](svc *protocol.Services, evicted func() *obs.Counter) *bounded.Table[id.Run, V] {
	var lines spacedLog
	return bounded.New(maxOpenRuns, 0, func(run id.Run, _ V) {
		evicted().Inc()
		if unreported, ok := lines.due(svc.Clock.Now()); ok {
			log.Printf("invoke: %s: dropped run %s, unreceipted behind %d newer runs (%d dropped since the last report); its receipt will be refused: %v",
				svc.Party, run, maxOpenRuns, unreported, ErrNoSuchRun)
		}
	})
}

// kept returns a run the server still keeps, open or settled.
func (s *Server) kept(run id.Run) (*serverRun, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keptLocked(run)
}

func (s *Server) keptLocked(run id.Run) (*serverRun, error) {
	if rs, ok := s.open.Get(run); ok {
		return rs, nil
	}
	if rs, ok := s.settled.Get(run); ok {
		return rs, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoSuchRun, run)
}

// answer returns a run's response once the evidence it carries is durable
// (R1, R2). The first call commits the step's group; a call that follows a
// failed commit commits the same entries again — the same tokens, nothing
// re-executed or re-issued (a log that failed after writing, ErrQuorumUnmet
// from a replicated vault, then holds them twice) — and every later call
// only repeats the reply.
func (s *Server) answer(ctx context.Context, run id.Run, rs *serverRun) (*protocol.Message, error) {
	rs.logMu.Lock()
	defer rs.logMu.Unlock()
	if rs.unlogged == nil {
		return rs.reply, nil
	}
	if err := logGroup(ctx, s.co.Services(), rs.unlogged...); err != nil {
		return nil, err
	}
	rs.unlogged = nil
	if s.d.recovery && s.receiptTimeout > 0 && s.ttp != "" {
		s.watchReceipt(rs, run)
	}
	return rs.reply, nil
}

// respond executes a request whose NRO verified and builds the run's
// state: the response, its evidence tokens and the reply message carrying
// them. The reply carries the NRR unless the protocol leaves it to the
// server to volunteer and the server does not, and the NROResp unless the
// protocol is receiptless; whatever it carries is issued after execution,
// under one signature of its own. Nothing is logged here; issued lists, in
// protocol order, the log entries of the tokens generated, for the caller
// to commit with the request origin before the reply leaves.
func (s *Server) respond(ctx context.Context, msg *protocol.Message, snap *evidence.RequestSnapshot, a *evidence.Anchors) (*serverRun, []store.Entry, error) {
	svc := s.co.Services()
	// Streamed parameters: every buffered chunk is checked against the
	// chain the NRO just bound before the component sees a byte — a
	// missing or tampered chunk fails here, attributably, against the
	// signed digest chain.
	streams, err := s.collectStreams(msg.Sender, snap.Params)
	if err != nil {
		return nil, nil, err
	}

	// Execute the request under the agreed timeout; failures become
	// interceptor-generated evidence rather than protocol errors.
	sp := svc.Obs.StartChild(ctx, "server.execute")
	respSnap, resultChunks, err := s.execute(ctx, snap, a.NRO.Digest, streams)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	respDigest, err := respSnap.Digest()
	if err != nil {
		return nil, nil, err
	}

	reply := &protocol.Message{
		Protocol: msg.Protocol,
		Run:      msg.Run,
		Txn:      msg.Txn,
		Step:     stepResponse,
		Kind:     kindResponse,
	}
	if err := reply.SetBody(responseBody{Snapshot: respSnap}); err != nil {
		return nil, nil, err
	}

	rs := &serverRun{
		anchors:      *a,
		reqSnap:      *snap,
		respSnap:     respSnap,
		reply:        reply,
		receiptless:  s.d.receiptless,
		resultChunks: resultChunks,
		served:       make(map[string]bool),
		receipt:      make(chan struct{}),
	}
	for _, chunks := range resultChunks {
		if len(chunks) > 0 {
			rs.unserved++
		}
		for _, c := range chunks {
			rs.chunkBytes += int64(len(c))
		}
	}

	// One signing operation covers the reply's tokens and nothing else,
	// so the response origin borrows the receipt's signature in both
	// vaults and its inclusion path is the receipt's digest alone.
	shared := []evidence.IssueOption{
		evidence.WithService(snap.Service), evidence.WithTxn(msg.Txn), evidence.WithRecipients(snap.Client),
	}
	var reqs []evidence.TokenRequest
	if !s.d.volunteered || s.voluntaryReceipt {
		reqs = append(reqs, evidence.TokenRequest{Kind: evidence.KindNRR, Run: msg.Run, Step: stepRequest, Digest: a.NRO.Digest, Opts: shared})
	}
	if !s.d.receiptless {
		reqs = append(reqs, evidence.TokenRequest{Kind: evidence.KindNROResp, Run: msg.Run, Step: stepResponse, Digest: respDigest, Opts: shared})
	}
	sp = svc.Obs.StartChild(ctx, "evidence.issue")
	toks, err := svc.Issuer.IssueBatch(reqs)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	reply.Tokens = toks
	issued := make([]store.Entry, len(toks))
	for i, tok := range toks {
		issued[i] = store.Entry{Dir: store.Generated, Token: tok, Note: "request receipt"}
		if tok.Kind == evidence.KindNROResp {
			rs.anchors.NROResp, issued[i].Note = tok, "response origin ("+respSnap.Status.String()+")"
		} else {
			rs.anchors.NRR = tok
		}
	}
	return rs, issued, nil
}

// execute runs the request through the executor, mapping failures to the
// response statuses of section 3.2. Streamed parameters reach a
// StreamExecutor as verified readers; streamed results come back as the
// response's chunk-digest chain parameters plus the chunk data kept for
// fetch serving.
func (s *Server) execute(ctx context.Context, snap *evidence.RequestSnapshot, reqDigest sig.Digest, streams map[string]io.Reader) (evidence.ResponseSnapshot, map[string][][]byte, error) {
	svc := s.co.Services()
	resp := evidence.ResponseSnapshot{
		Run:           snap.Run,
		Server:        svc.Party,
		RequestDigest: reqDigest,
	}
	execCtx, cancel := context.WithTimeout(ctx, s.execTimeout)
	defer cancel()
	results := NewResultStreams(DefaultStreamChunk)
	var result []evidence.Param
	var err error
	if se, ok := s.exec.(StreamExecutor); ok {
		result, err = se.ExecuteStream(execCtx, snap, streams, results)
	} else if len(streams) > 0 {
		err = fmt.Errorf("%w: executor does not support streamed parameters", ErrNotExecuted)
	} else {
		result, err = s.exec.Execute(execCtx, snap)
	}
	switch {
	case err == nil:
		resp.Status = evidence.StatusOK
		resp.Result = result
	case errors.Is(err, context.DeadlineExceeded):
		resp.Status = evidence.StatusTimeout
		resp.Error = fmt.Sprintf("no result within agreed timeout %v", s.execTimeout)
	case errors.Is(err, context.Canceled):
		resp.Status = evidence.StatusAborted
		resp.Error = "client aborted the request before a result was available"
	case errors.Is(err, ErrNotExecuted):
		resp.Status = evidence.StatusNotExecuted
		resp.Error = err.Error()
	default:
		resp.Status = evidence.StatusFailed
		resp.Error = err.Error()
	}
	if resp.Status != evidence.StatusOK {
		return resp, nil, nil
	}
	// Streamed results are bound by the response snapshot (and so by the
	// server's NRO-of-response) before a single chunk travels.
	streamParams, perr := results.params()
	if perr != nil {
		return resp, nil, perr
	}
	resp.Result = append(resp.Result, streamParams...)
	return resp, results.chunkMap(), nil
}

// processChunk absorbs one streamed-parameter chunk delivered ahead of
// its request. Chunks are buffered per (claimed) sender and stream and
// verified only when the request's signed evidence arrives; the caps
// bound what an unauthenticated sender can pin in memory.
func (s *Server) processChunk(msg *protocol.Message) (*protocol.Message, error) {
	var cb chunkBody
	if err := msg.Body(&cb); err != nil {
		return nil, err
	}
	if cb.Stream == "" {
		return nil, fmt.Errorf("invoke: chunk without stream id")
	}
	data := msg.AttachmentOr(cb.Data)
	key := streamKey(msg.Sender, cb.Stream)
	s.streamMu.Lock()
	ps, ok := s.pending.Get(key)
	if !ok {
		ps = &pendingStream{}
		s.pending.Put(key, ps)
	}
	switch {
	case cb.Seq < 0 || cb.Seq > len(ps.chunks):
		s.streamMu.Unlock()
		return nil, fmt.Errorf("invoke: chunk %d out of order for stream %q (have %d)", cb.Seq, cb.Stream, len(ps.chunks))
	case cb.Seq < len(ps.chunks):
		// Protocol-level duplicate: acknowledged only when identical.
		if !bytes.Equal(ps.chunks[cb.Seq], data) {
			s.streamMu.Unlock()
			return nil, fmt.Errorf("invoke: conflicting duplicate of chunk %d in stream %q", cb.Seq, cb.Stream)
		}
	default:
		if ps.bytes+int64(len(data)) > DefaultMaxStreamBytes {
			s.pending.Delete(key)
			s.streamMu.Unlock()
			return nil, fmt.Errorf("invoke: stream %q exceeds the %d byte limit", cb.Stream, DefaultMaxStreamBytes)
		}
		ps.chunks = append(ps.chunks, data)
		ps.bytes += int64(len(data))
		s.pending.Charge(key, int64(len(data)))
	}
	s.streamMu.Unlock()
	reply := &protocol.Message{Protocol: msg.Protocol, Run: msg.Run, Txn: msg.Txn, Step: msg.Step, Kind: kindChunkAck}
	if err := reply.SetBody(struct{}{}); err != nil {
		return nil, err
	}
	return reply, nil
}

// collectStreams resolves every streamed parameter of a verified request
// against its buffered chunks: the chain must be internally consistent
// (the root the NRO signed reproduces from it), the buffered chunk count
// must match, and every chunk must reproduce its signed digest. Failures
// name the stream and chunk — the attribution a signed chain buys.
func (s *Server) collectStreams(sender id.Party, params []evidence.Param) (map[string]io.Reader, error) {
	var m map[string]io.Reader
	for _, p := range params {
		if p.Kind != evidence.ParamStream {
			continue
		}
		if p.Stream == nil {
			return nil, fmt.Errorf("%w: streamed parameter %q without chunk chain", ErrEvidenceInvalid, p.Name)
		}
		if err := p.Stream.Verify(); err != nil {
			return nil, fmt.Errorf("%w: stream %q: %v", ErrEvidenceInvalid, p.Name, err)
		}
		r, err := s.takeStream(sender, p.Stream, p.Name)
		if err != nil {
			return nil, err
		}
		if m == nil {
			m = make(map[string]io.Reader)
		}
		m[p.Name] = r
	}
	return m, nil
}

// takeStream removes and verifies one buffered stream.
func (s *Server) takeStream(sender id.Party, ref *evidence.StreamRef, name string) (io.Reader, error) {
	key := streamKey(sender, ref.Stream)
	s.streamMu.Lock()
	ps, ok := s.pending.Delete(key)
	s.streamMu.Unlock()
	var chunks [][]byte
	if ok {
		chunks = ps.chunks
	}
	if len(chunks) != len(ref.Chunks) {
		return nil, fmt.Errorf("%w: stream %q delivered %d of the %d chunks bound by the signed evidence",
			ErrEvidenceInvalid, name, len(chunks), len(ref.Chunks))
	}
	readers := make([]io.Reader, len(chunks))
	for i, c := range chunks {
		if err := ref.VerifyChunk(i, c); err != nil {
			return nil, fmt.Errorf("%w: stream %q chunk %d: %v", ErrEvidenceInvalid, name, i, err)
		}
		readers[i] = bytes.NewReader(c)
	}
	return io.MultiReader(readers...), nil
}

// processChunkFetch serves one chunk of a run's streamed result. Fetches
// are idempotent reads; replay protection is the transport's concern.
func (s *Server) processChunkFetch(msg *protocol.Message) (*protocol.Message, error) {
	var fb chunkFetchBody
	if err := msg.Body(&fb); err != nil {
		return nil, err
	}
	// The chunk is read under s.mu: TamperResultChunk replaces slice
	// elements under the same lock, so the element read is never torn.
	s.mu.Lock()
	rs, err := s.keptLocked(msg.Run)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if rs.resultChunks == nil && rs.settled {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s was served in full and its result streams released", ErrNoSuchRun, msg.Run)
	}
	chunks, ok := rs.resultChunks[fb.Name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("invoke: run %s has no result stream %q", msg.Run, fb.Name)
	}
	if fb.Seq < 0 || fb.Seq >= len(chunks) {
		s.mu.Unlock()
		return nil, fmt.Errorf("invoke: result stream %q has no chunk %d", fb.Name, fb.Seq)
	}
	data := chunks[fb.Seq]
	if fb.Seq == len(chunks)-1 && !rs.served[fb.Name] {
		rs.served[fb.Name] = true
		rs.unserved--
		s.settleLocked(msg.Run, rs)
	}
	s.mu.Unlock()
	reply := &protocol.Message{Protocol: msg.Protocol, Run: msg.Run, Step: msg.Step, Kind: kindChunkData}
	if err := reply.SetBody(chunkDataBody{}); err != nil {
		return nil, err
	}
	reply.Attachment = data
	return reply, nil
}

// ErrNotExecuted signals from an Executor that the request was received
// but not executed (for example, denied by access control); the
// interceptor evidences this instead of a result.
var ErrNotExecuted = errors.New("invoke: request received but not executed")

// processReceipt handles step 3, the client's response receipt.
func (s *Server) processReceipt(ctx context.Context, msg *protocol.Message) error {
	if s.d.receiptless {
		// Nothing is logged for a step the protocol does not have.
		return fmt.Errorf("invoke: %s has no receipt step", s.d.name)
	}
	svc := s.co.Services()
	rs, err := s.kept(msg.Run)
	if err != nil {
		return err
	}
	rs.receiptMu.Lock()
	defer rs.receiptMu.Unlock()
	rs.mu.Lock()
	logged := rs.consumed != nil
	rs.mu.Unlock()
	if logged {
		return nil // retransmission: the receipt is already in the log
	}
	note, tok, err := checkReceipt(svc.Verifier, &rs.anchors, msg)
	if err != nil {
		return err
	}
	if err := logGroup(ctx, svc, store.Entry{Dir: store.Received, Token: tok, Note: "response receipt (" + note.Consumption.String() + ")"}); err != nil {
		return err
	}
	rs.markReceipt(note.Consumption)
	s.settle(msg.Run, rs)
	return nil
}

// settle moves an open run whose exchange is over and whose result
// streams were served to the end into the settled tables: whole runs
// beyond maxSettledRuns are forgotten, and the oldest settled runs give up
// their result chunks until what remains fits maxSettledChunkBytes. A
// fetch or receipt retransmitted within those bounds is still answered
// from the kept state. A run evicted from the open table stays forgotten.
func (s *Server) settle(run id.Run, rs *serverRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.open.Get(run); ok && cur == rs {
		s.settleLocked(run, rs)
	}
}

func (s *Server) settleLocked(run id.Run, rs *serverRun) {
	if rs.settled || rs.unserved > 0 || !rs.over() {
		return
	}
	rs.settled = true
	s.open.Delete(run)
	s.settled.Put(run, rs)
	if rs.chunkBytes > 0 {
		s.settledChunks.Put(run, rs)
		s.settledChunks.Charge(run, rs.chunkBytes)
	}
}

// watchReceipt resolves through the TTP if the receipt does not arrive in
// time on the coordinator's clock. The timer starts before the reply
// leaves (answer), so the receipt timeout runs from a point the client
// cannot see past.
func (s *Server) watchReceipt(rs *serverRun, run id.Run) {
	timer := clock.NewTimer(s.co.Services().Clock, s.receiptTimeout)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer timer.Stop()
		select {
		case <-rs.receipt:
		case <-s.closed:
		case <-timer.C():
			_ = s.resolve(context.Background(), rs, run)
		}
	}()
}

// resolve obtains a TTP substitute receipt for a withheld NRR(resp).
func (s *Server) resolve(ctx context.Context, rs *serverRun, run id.Run) error {
	var resolveErr error
	rs.resolveOnce.Do(func() {
		a := rs.anchors
		a.TTP = s.ttp
		resolved, err := askTTP(ctx, s.co, &a, stepReceipt, kindResolve,
			resolveBody{Request: rs.reqSnap, Response: rs.respSnap, NRO: a.NRO, NRR: a.NRR, NROResp: a.NROResp})
		if err == nil && !resolved {
			err = fmt.Errorf("%w: %s", ErrAborted, run)
		}
		if resolveErr = err; err != nil {
			return
		}
		rs.mu.Lock()
		rs.resolved = true
		rs.mu.Unlock()
		s.settle(run, rs)
	})
	return resolveErr
}

// TamperResultChunk corrupts one stored chunk of a run's streamed result.
// Like WithholdReceipt, it exists to exercise the misbehaviour paths in
// tests and demonstrations: the client's stream reader must detect the
// corruption against the signed chunk chain and attribute it by index. It
// reports whether the named chunk existed.
func (s *Server) TamperResultChunk(run id.Run, name string, seq int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, err := s.keptLocked(run)
	if err != nil {
		return false
	}
	chunks := rs.resultChunks[name]
	if seq < 0 || seq >= len(chunks) {
		return false
	}
	c := append([]byte(nil), chunks[seq]...)
	c[0] ^= 0xff
	chunks[seq] = c
	return true
}

// ResolveNow forces TTP resolution for a run, for tests and tools that do
// not want to wait for the receipt timeout.
func (s *Server) ResolveNow(ctx context.Context, run id.Run) error {
	rs, err := s.kept(run)
	if err != nil {
		return err
	}
	return s.resolve(ctx, rs, run)
}

// ReceiptState reports the evidence state of a run: whether the client's
// receipt arrived and whether a TTP substitute was obtained.
func (s *Server) ReceiptState(run id.Run) (received, resolved bool, err error) {
	rs, err := s.kept(run)
	if err != nil {
		return false, false, err
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.consumed != nil, rs.resolved, nil
}

// WaitReceipt blocks until the run's receipt arrives, the context ends, or
// the server closes.
func (s *Server) WaitReceipt(ctx context.Context, run id.Run) error {
	rs, err := s.kept(run)
	if err != nil {
		return err
	}
	select {
	case <-rs.receipt:
		return nil
	case <-s.closed:
		return ErrNoSuchRun
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops background recovery watchers.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	s.wg.Wait()
	return nil
}
