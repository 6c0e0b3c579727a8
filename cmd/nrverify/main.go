// Command nrverify is the adjudicator's side of dispute resolution
// (paper section 3.1): it judges a party's evidence with no live parties
// required. One judge gives every verdict — each log's hash chain and,
// with a bundle's certificates, every token's signature and attribution,
// then per run what its evidence proves — and each mode only opens where
// the records come from:
//
//   - -bundle: an exported bundle, one log per party in memory, its runs
//     judged from all the parties' records at once;
//   - -vault: a vault in place, streamed through its query engine, with
//     -run/-txn narrowing the audit via the persistent indexes and -deep
//     re-reading every sealed segment against its seal;
//   - -remote: a live organisation's vault over the wire, page by page
//     through its audit service, so a dispute can be evaluated without
//     the audited party exporting anything — and, with -source, without
//     the audited party at all: the named organisation's evidence is
//     read from the remote peer's replica store instead.
//
// With -remote and -follow it subscribes to the organisation's live
// evidence feed instead of auditing a snapshot: the full chain is
// backfilled and then every group commit streams in as it lands, each
// record verified onto the hash chain on receipt (and each token
// signature-checked when -bundle supplies certificates). The publisher
// must allow anonymous subscriptions (WithOpenSubscriptions) — follow
// mode holds no domain credentials, like the rest of this tool.
//
// With -prov it prints the provenance graph of a run instead of a
// verdict: the run's tokens as signed edges, the parties they bind, the
// linked business transactions, and — multi-hop — the runs derived
// through shared transactions, walked breadth-first to -hops degrees of
// separation. The graph is derived here from the records, read through
// the same source as a verdict: a local vault (-vault) or a live
// organisation's audit service (-remote).
//
// With -vault and -sizes it prints the vault's evidence-space overhead
// (paper section 6) instead of a verdict: per segment, the format its
// records are stored in ("binary" is segment format 10, "binary-v9" to
// "binary-v1" and "json" the formats before it) and its index ("binary"
// is index version 4, "binary-v3", "binary-v2" and "json" the versions
// before it), the bytes each takes per record — of the index's, those
// of its pinned hashes and of its offsets — and how many frames are
// plain and how many follow a leader (with the
// bytes a frame of each sort takes), then the vault's total, how many
// plain frames take their parties from a party source and how many
// followers borrow their signature from the frame before them, per frame
// type how many frames take their signer from the frame they lean on and
// how their parties travel (the same, mirrored, by reference or spelled
// out), then per token kind the records, their mean frame and the mean bytes their notes
// take stored as vocabulary codes, structured JSON trees and text. A
// segment that does not decode in full is an error (exit 2).
//
// Usage:
//
//	nrverify -bundle DIR [-run RUN-ID]
//	nrverify -vault DIR [-bundle DIR] [-run RUN-ID] [-txn TXN-ID] [-deep]
//	nrverify -vault DIR -prov RUN-ID [-hops N]
//	nrverify -vault DIR -sizes
//	nrverify -remote ADDR [-bundle DIR] [-run RUN-ID] [-source PARTY] [-page N]
//	nrverify -remote ADDR -prov RUN-ID [-hops N]
//	nrverify -remote ADDR -follow [-bundle DIR] [-for DURATION]
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"nonrep/internal/bundle"
	"nonrep/internal/clock"
	"nonrep/internal/core"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

func main() {
	dir := flag.String("bundle", "", "evidence bundle directory")
	vaultDir := flag.String("vault", "", "audit an evidence vault directory in place")
	remote := flag.String("remote", "", "audit a live coordinator at this address (host:port, or host:port#tenant for hosted organisations)")
	source := flag.String("source", "", "audit the remote peer's replica of this party's vault instead of the peer's own evidence (remote mode)")
	page := flag.Int("page", 0, "records per page of remote streaming (remote mode)")
	runFilter := flag.String("run", "", "only report on this run identifier")
	txnFilter := flag.String("txn", "", "only report on this transaction identifier (vault mode)")
	deep := flag.Bool("deep", false, "re-verify every sealed segment against its seal (vault mode)")
	follow := flag.Bool("follow", false, "subscribe to the remote organisation's live evidence feed (remote mode)")
	forDur := flag.Duration("for", 0, "stop following after this long (0 = until interrupted)")
	prov := flag.String("prov", "", "print the provenance graph of this run (vault or remote mode)")
	hops := flag.Int("hops", 2, "degrees of derived-run separation to walk with -prov")
	sizes := flag.Bool("sizes", false, "print per-segment formats, bytes per record and note bytes per kind (vault mode)")
	flag.Parse()
	if *remote != "" {
		if *prov != "" {
			os.Exit(provRemote(*remote, id.Run(*prov), *hops))
		}
		if *follow {
			os.Exit(followRemote(*remote, *dir, *forDur))
		}
		os.Exit(auditRemote(*remote, *dir, *source, *runFilter, *page))
	}
	if *vaultDir != "" {
		if *sizes {
			os.Exit(sizesVault(*vaultDir))
		}
		if *prov != "" {
			os.Exit(provVault(*vaultDir, id.Run(*prov), *hops))
		}
		os.Exit(auditVault(*vaultDir, *dir, *runFilter, *txnFilter, *deep))
	}
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(auditBundle(*dir, *runFilter))
}

// judge gives the verdict on evidence read as record streams: a bundle's
// logs in memory, a vault's query engine, a peer's audit service page by
// page. Without certificates (adj nil) it judges the tamper-evidence
// chains alone. integrity says whether an error that ends a stream is a
// verdict on the evidence (FAULTY, exit 1) or a failure to read it (no
// verdict, exit 2).
type judge struct {
	adj       *core.Adjudicator
	integrity func(error) bool
	faulty    bool // a fault has been reported
}

// newJudge builds a judge over the certificates of the bundle in dir,
// none when dir is empty.
func newJudge(dir string, integrity func(error) bool) (*judge, error) {
	creds, err := credentials(dir)
	j := &judge{integrity: integrity}
	if creds != nil {
		j.adj = core.NewAdjudicator(creds)
	}
	return j, err
}

// credentials rebuilds the credential store of the bundle in dir, nil
// when dir is empty.
func credentials(dir string) (*credential.Store, error) {
	if dir == "" {
		return nil, nil
	}
	b, err := bundle.Read(dir)
	if err != nil {
		return nil, err
	}
	return b.CredentialStore(clock.Real{})
}

// anyError: every error that ends a local stream is a verdict on the
// evidence.
func anyError(error) bool { return true }

// integrityError reports whether a remote stream error is an evidence
// integrity verdict from the serving side (broken seal or chain, corrupt
// storage) rather than a transport or availability failure. The
// distinction matters in a non-repudiation tool: an unreachable peer is
// "could not audit" (exit 2), never "evidence FAULTY" (exit 1).
func integrityError(err error) bool {
	s := err.Error()
	return strings.Contains(s, "seal broken") ||
		strings.Contains(s, "chain broken") ||
		strings.Contains(s, "corrupt line")
}

// fail maps an error that ended a stream to its exit code.
func (j *judge) fail(err error) int {
	fmt.Fprintln(os.Stderr, "nrverify:", err)
	if j.integrity(err) {
		fmt.Println("\nverdict: evidence FAULTY")
		return 1
	}
	fmt.Fprintln(os.Stderr, "nrverify: could not audit (no verdict)")
	return 2
}

// failed reports an error that leaves no verdict and returns code.
func failed(err error, code int) int {
	fmt.Fprintln(os.Stderr, "nrverify:", err)
	return code
}

// collect reads src to its end, printing each record when list is set.
func collect(src core.RecordSource, list bool) ([]*store.Record, error) {
	var records []*store.Record
	for src.Next() {
		rec := src.Record()
		if list {
			fmt.Printf("  seq %-8d %-12s run=%s kind=%s issuer=%s\n",
				rec.Seq, rec.Direction, rec.Token.Run, rec.Token.Kind, rec.Token.Issuer)
		}
		records = append(records, rec)
	}
	return records, src.Err()
}

// log is the whole-log audit: the hash chain re-derived and every token
// checked as one log streams past, printed on a line headed by head of
// the record count. It returns the error that ended the stream if that
// is no verdict on the evidence, and prints nothing then.
func (j *judge) log(src core.RecordSource, head func(records int) string) error {
	report := j.adj.AuditStream(src)
	if err := src.Err(); err != nil && !j.integrity(err) {
		return err
	}
	status := "CLEAN"
	if !report.Clean() {
		status, j.faulty = "FAULTY", true
	}
	fmt.Printf("%s  chain=%v  %s\n", head(report.Records), report.ChainOK, status)
	if report.ChainError != "" {
		fmt.Printf("    chain: %s\n", report.ChainError)
	}
	printFaults(report.Faults)
	return nil
}

func streamAudit(records int) string { return fmt.Sprintf("stream audit: %d records", records) }

// runs is the per-run reconstruction: each run of records (only the run
// named, if one is), in run order, judged from all its records at once.
// With skipBare the runs without invocation evidence (the sharing
// protocol's) are left out.
func (j *judge) runs(records []*store.Record, only id.Run, skipBare bool) {
	byRun := make(map[id.Run][]*store.Record)
	for _, rec := range records {
		if rec.Token != nil && (only == "" || rec.Token.Run == only) {
			byRun[rec.Token.Run] = append(byRun[rec.Token.Run], rec)
		}
	}
	for _, run := range slices.Sorted(maps.Keys(byRun)) {
		r, _ := j.adj.AuditRunStream(core.Records(byRun[run]), run)
		if skipBare && !r.RequestProven && !r.ResponseProven && len(r.Faults) == 0 {
			continue
		}
		flags := ""
		if r.Substituted {
			flags += " [TTP substitute]"
		}
		if r.Aborted {
			flags += " [aborted]"
		}
		fmt.Printf("  %s\n    client=%s server=%s request=%v receipt=%v response=%v resp-receipt=%v complete=%v%s\n",
			r.Run, r.Client, r.Server, r.RequestProven, r.ReceiptProven, r.ResponseProven, r.ResponseReceiptProven, r.Complete(), flags)
		printFaults(r.Faults)
		j.faulty = j.faulty || len(r.Faults) > 0
	}
}

func printFaults(faults []core.Fault) {
	for _, fault := range faults {
		fmt.Printf("    record %d: %s\n", fault.Seq, fault.Reason)
	}
}

// verdict prints the judgement and returns its exit code.
func (j *judge) verdict(clean string) int {
	if j.faulty {
		fmt.Println("\nverdict: evidence FAULTY")
		return 1
	}
	fmt.Println("\nverdict: " + clean)
	return 0
}

// auditBundle audits an exported evidence bundle: each party's log on its
// own (hash chain and every token), then each invocation run judged from
// all the parties' records of it at once.
func auditBundle(dir, runFilter string) int {
	b, err := bundle.Read(dir)
	if err != nil {
		return failed(err, 1)
	}
	creds, err := b.CredentialStore(clock.Real{})
	if err != nil {
		return failed(err, 1)
	}
	j := &judge{adj: core.NewAdjudicator(creds), integrity: anyError}
	fmt.Printf("bundle: %d certificates, %d evidence logs\n\n", len(b.Certs), len(b.Logs))
	var merged []*store.Record
	for _, p := range slices.Sorted(maps.Keys(b.Logs)) {
		j.log(core.Records(b.Logs[p]), func(n int) string { return fmt.Sprintf("log %-24s %3d records", p, n) })
		merged = append(merged, b.Logs[p]...)
	}
	fmt.Println("\nper-run reconstruction:")
	j.runs(merged, id.Run(runFilter), true)
	return j.verdict("all evidence verifies")
}

// auditVault audits an evidence vault in place, streaming records through
// the query engine instead of loading the log. With a bundle supplying
// certificates, every token is signature-checked; without one the audit
// covers the tamper-evidence chains only.
func auditVault(dir, bundleDir, runFilter, txnFilter string, deep bool) int {
	// Read-only: an audit must never reshape the evidence store (no lock
	// file creation, no tail truncation, no index rewrite, no sealing),
	// must work from read-only media, and must refuse a mistyped path
	// rather than conjure an empty vault that "verifies".
	v, err := vault.Open(dir, clock.Real{}, vault.WithReadOnly())
	if err != nil {
		return failed(err, 1)
	}
	defer v.Close()
	st := v.Stats()
	fmt.Printf("vault: %d records (%d sealed segments, %d in tail)\n", st.LastSeq, st.Segments, st.TailRecords)

	// A bare audit must not hand out a clean verdict on the cheap check
	// alone (open verifies the manifest chain and tail but never reads
	// sealed segment data), so with nothing narrower requested the audit
	// is a deep one.
	if deep || bundleDir == "" && runFilter == "" && txnFilter == "" {
		if err := v.DeepVerify(); err != nil {
			fmt.Printf("deep verify: %v\n\nverdict: evidence FAULTY\n", err)
			return 1
		}
		fmt.Println("deep verify: every sealed segment matches its seal")
	}
	j, err := newJudge(bundleDir, anyError)
	if err != nil {
		return failed(err, 1)
	}
	if runFilter != "" || txnFilter != "" {
		records, err := collect(v.Query(vault.Query{Run: id.Run(runFilter), Txn: id.Txn(txnFilter)}), true)
		if err != nil {
			return j.fail(err)
		}
		fmt.Printf("%d matching records\n", len(records))
		if j.adj == nil {
			fmt.Println("\nverdict: tamper-evidence chains verify (pass -bundle to verify tokens)")
			return 0
		}
		j.runs(records, "", false)
		return j.verdict("filtered evidence verifies")
	}
	if j.adj == nil {
		fmt.Println("tokens not verified (pass -bundle for signature checks)")
		return j.verdict("tamper-evidence chains verify")
	}
	if err := j.log(v.Query(vault.Query{}), streamAudit); err != nil {
		return j.fail(err)
	}
	return j.verdict("all evidence verifies")
}

// dial registers the ephemeral coordinator the remote modes speak
// through on a local TCP port; closing it closes the network too.
func dial() (*protocol.Coordinator, func(), error) {
	net := transport.NewTCPNetwork()
	co, err := protocol.New(net, "127.0.0.1:0", &protocol.Services{
		Party: "urn:nonrep:nrverify", Clock: clock.Real{}, Directory: protocol.NewDirectory(),
	})
	if err != nil {
		_ = net.Close()
		return nil, nil, err
	}
	return co, func() { _ = co.Close(); _ = net.Close() }, nil
}

// remote reads a live organisation's evidence — or its replica of
// replicaOf's — through the audit service at addr, page by page.
func remote(addr, replicaOf string, page int) (core.Querier, func(), error) {
	co, closeCo, err := dial()
	if err != nil {
		return nil, nil, err
	}
	client := protocol.NewAuditClient(co)
	client.SetPage(page)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	query := func(q vault.Query) core.RecordSource { return client.QueryAddr(ctx, addr, q, replicaOf) }
	return query, func() { cancel(); closeCo() }, nil
}

// auditRemote audits a live organisation's evidence over the wire: an
// ephemeral coordinator is registered on a local TCP port and the audit
// service at addr streams records to it page by page. With a bundle
// supplying certificates every token is signature-checked; without one
// only stream integrity (the serving vault's chains) is covered.
func auditRemote(addr, bundleDir, source, runFilter string, page int) int {
	query, closeQuery, err := remote(addr, source, page)
	if err != nil {
		// Setup failures produce no verdict: exit 2, never the
		// evidence-FAULTY code.
		return failed(err, 2)
	}
	defer closeQuery()

	target := "the remote organisation's own vault"
	if source != "" {
		target = fmt.Sprintf("the remote replica of %s", source)
	}
	fmt.Printf("remote audit of %s via %s\n", target, addr)
	j, err := newJudge(bundleDir, integrityError)
	if err != nil {
		return failed(err, 2)
	}
	switch {
	case runFilter != "" && j.adj == nil:
		fmt.Fprintln(os.Stderr, "nrverify: -run in remote mode needs -bundle for signature checks")
		return 2
	case runFilter != "":
		records, err := collect(query(vault.Query{Run: id.Run(runFilter)}), false)
		if err != nil {
			return j.fail(err)
		}
		j.runs(records, "", false)
		return j.verdict("run evidence verifies")
	case j.adj == nil:
		// Stream the whole log for chain integrity only: the remote
		// iterator surfaces any serving-side seal or chain break as a
		// stream error.
		it, n := query(vault.Query{}), 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			return j.fail(err)
		}
		fmt.Printf("streamed %d records (pass -bundle for signature checks)\n", n)
		return j.verdict("remote evidence streams and chains verify")
	}
	// A stream that died for transport reasons leaves a partial report
	// that is no verdict on the evidence.
	if err := j.log(query(vault.Query{}), streamAudit); err != nil {
		return j.fail(err)
	}
	return j.verdict("all evidence verifies")
}

// followRemote subscribes to a live organisation's evidence feed over
// TCP and prints every record as its group commit lands. The feed client
// verifies the hash chain on receipt — a gap, duplicate or forgery ends
// the stream with an error — and with a bundle every token's signature
// and attribution are checked too. Runs until interrupted (or -for
// elapses); a publisher eviction reports the resume position.
func followRemote(addr, bundleDir string, forDur time.Duration) int {
	co, closeCo, err := dial()
	if err != nil {
		return failed(err, 2)
	}
	defer closeCo()
	creds, err := credentials(bundleDir)
	if err != nil {
		return failed(err, 2)
	}
	var verifier *evidence.Verifier
	if creds != nil {
		verifier = &evidence.Verifier{Keys: creds}
	}

	ctx := context.Background()
	if forDur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, forDur)
		defer cancel()
	}
	client := protocol.NewSubClient(co)
	feed, err := client.SubscribeAddr(ctx, addr, protocol.WatchConfig{Seals: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 2
	}
	defer feed.Close()
	fmt.Printf("following live evidence feed at %s (chain verified on receipt)\n", addr)

	records, faults := 0, 0
	timeout := make(<-chan time.Time)
	if forDur > 0 {
		timeout = time.After(forDur)
	}
	for {
		select {
		case ev, ok := <-feed.Events():
			if !ok {
				err := feed.Err()
				seq, _ := feed.Position()
				if err != nil {
					fmt.Fprintf(os.Stderr, "nrverify: feed ended at record %d: %v\n", seq, err)
					if faults > 0 {
						fmt.Println("\nverdict: evidence FAULTY")
						return 1
					}
					fmt.Fprintln(os.Stderr, "nrverify: could not keep following (no verdict)")
					return 2
				}
				return followVerdict(records, faults)
			}
			if ev.Seal != nil {
				fmt.Printf("  seal: segment %d (records %d..%d)\n", ev.Seal.Segment, ev.Seal.FirstSeq, ev.Seal.LastSeq)
				continue
			}
			for _, rec := range ev.Records {
				records++
				line := fmt.Sprintf("  seq %-8d %-12s run=%s kind=%s issuer=%s",
					rec.Seq, rec.Direction, rec.Token.Run, rec.Token.Kind, rec.Token.Issuer)
				if verifier != nil {
					if err := verifier.Verify(rec.Token); err != nil {
						faults++
						line += fmt.Sprintf("  TOKEN FAULT: %v", err)
					}
				}
				fmt.Println(line)
			}
		case <-timeout:
			return followVerdict(records, faults)
		}
	}
}

func followVerdict(records, faults int) int {
	fmt.Printf("\nfollowed %d records, %d token faults\n", records, faults)
	if faults > 0 {
		fmt.Println("verdict: evidence FAULTY")
		return 1
	}
	fmt.Println("verdict: streamed evidence verifies (chain-continuous)")
	return 0
}

// sizesVault prints what the vault's evidence costs on disk: one row per
// segment, then the total.
func sizesVault(dir string) int {
	v, err := vault.Open(dir, clock.Real{}, vault.WithReadOnly())
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 2
	}
	defer v.Close()
	segs, err := v.Sizes()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 2
	}
	perRecord := func(bytes int64, records int) float64 {
		if records == 0 {
			return 0
		}
		return float64(bytes) / float64(records)
	}
	fmt.Printf("%-8s %-7s %-10s %8s %12s %-9s %12s %10s %13s %8s %9s %10s %10s\n", "segment", "state", "format", "records", "frame B/rec",
		"index", "index B/rec", "pin B/rec", "offset B/rec", "plain", "B/plain", "followers", "B/follower")
	var records int
	var segBytes, idxBytes, pinBytes, offsetBytes, plainBytes int64
	var frames store.FrameCount
	for _, s := range segs {
		state, index := "sealed", s.IndexFormat
		if !s.Sealed {
			state = "tail"
		}
		if index == "" {
			index = "-"
		}
		plain := s.Records - s.Followers
		fmt.Printf("%-8d %-7s %-10s %8d %12.1f %-9s %12.1f %10.1f %13.1f %8d %9.1f %10d %10.1f\n", s.Segment, state, s.Format, s.Records,
			perRecord(s.SegmentBytes, s.Records), index, perRecord(s.IndexBytes, s.Records), perRecord(s.PinBytes, s.Records),
			perRecord(s.OffsetBytes, s.Records), plain, perRecord(s.PlainBytes, plain), s.Followers, perRecord(s.FollowerBytes, s.Followers))
		records += s.Records
		segBytes += s.SegmentBytes
		idxBytes += s.IndexBytes
		pinBytes += s.PinBytes
		offsetBytes += s.OffsetBytes
		plainBytes += s.PlainBytes
		frames.Add(s.FrameCount)
	}
	fmt.Printf("total: %d records in %d segments, %d segment bytes + %d index bytes = %.1f frame + %.1f index = %.1f B/record\n",
		records, len(segs), segBytes, idxBytes, perRecord(segBytes, records), perRecord(idxBytes, records),
		perRecord(segBytes+idxBytes, records))
	fmt.Printf("pins: %d index bytes of pinned hashes = %.1f B/record\n", pinBytes, perRecord(pinBytes, records))
	fmt.Printf("offsets: %d index bytes of offsets = %.1f B/record\n", offsetBytes, perRecord(offsetBytes, records))
	fmt.Printf("frames: %d plain at %.1f B, %d of them taking their parties from a party source at %.1f B; %d followers at %.1f B, %d of them borrowing a signature at %.1f B\n",
		records-frames.Followers, perRecord(plainBytes, records-frames.Followers), frames.PartyBorrowers,
		perRecord(frames.PartyBorrowerBytes, frames.PartyBorrowers), frames.Followers,
		perRecord(frames.FollowerBytes, frames.Followers), frames.SigBorrowers, perRecord(frames.SigBorrowerBytes, frames.SigBorrowers))
	// What the frames that lean on another take from it: a follower from
	// its leader, a plain frame from its party source.
	for _, f := range []struct {
		name   string
		frames int
		lend   store.Lending
	}{{"plain frames", records - frames.Followers, frames.Plain}, {"followers", frames.Followers, frames.Follow}} {
		p := f.lend.Parties
		fmt.Printf("lending, %s: %d of %d taking their signer from their lender; parties %d same, %d mirrored, %d referenced, %d spelled out\n",
			f.name, f.lend.Signers, f.frames, p[store.PartiesSame], p[store.PartiesMirrored], p[store.PartiesReferenced], p[store.PartiesSpelled])
	}

	d := frames.Digests
	fmt.Printf("digests: %d written, %d lent by their lender, %d rebuilt as the receipt of a response origin, %d rebuilt from their note\n",
		d[store.DigestStored], d[store.DigestLent], d[store.DigestReceipt], d[store.DigestNote])

	// What each token kind takes, and how its notes are stored: B/record
	// of coded, structured and literal notes add up to its notes' mean.
	fmt.Printf("\n%-14s %8s %12s %13s %13s %13s\n", "kind", "records", "frame B/rec", "coded B/rec", "struct B/rec", "literal B/rec")
	for _, kind := range slices.Sorted(maps.Keys(frames.Kinds)) {
		c := frames.Kinds[kind]
		fmt.Printf("%-14s %8d %12.1f %13.1f %13.1f %13.1f\n", kind, c.Records, perRecord(c.FrameBytes, c.Records),
			perRecord(c.NoteBytes[store.NoteCoded], c.Records), perRecord(c.NoteBytes[store.NoteStructured], c.Records),
			perRecord(c.NoteBytes[store.NoteLiteral], c.Records))
	}
	return 0
}

// provVault prints the provenance graph of a run from a local vault,
// walking derived runs through the shared-transaction edges.
func provVault(dir string, run id.Run, hops int) int {
	v, err := vault.Open(dir, clock.Real{}, vault.WithReadOnly())
	if err != nil {
		return failed(err, 2)
	}
	defer v.Close()
	return provWalk(run, hops, func(q vault.Query) core.RecordSource { return v.Query(q) })
}

// provRemote prints the provenance graph of a run derived from a live
// organisation's evidence, read through its audit service.
func provRemote(addr string, run id.Run, hops int) int {
	query, closeQuery, err := remote(addr, "", 0)
	if err != nil {
		return failed(err, 2)
	}
	defer closeQuery()
	return provWalk(run, hops, query)
}

// provWalk prints the provenance neighbourhood of root and walks its
// derived runs breadth-first to the requested degrees of separation,
// printing each visited run's graph exactly once.
func provWalk(root id.Run, hops int, query core.Querier) int {
	type hop struct {
		run   id.Run
		depth int
	}
	queue := []hop{{run: root, depth: 0}}
	visited := map[id.Run]bool{root: true}
	printed := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		g, err := core.Provenance(query, cur.run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nrverify: provenance of %s: %v\n", cur.run, err)
			return 2
		}
		if len(g.Tokens) == 0 && cur.run == root {
			fmt.Fprintf(os.Stderr, "nrverify: no evidence for run %s\n", root)
			return 2
		}
		printed++
		indent := strings.Repeat("  ", cur.depth)
		fmt.Printf("%srun %s (hop %d)\n", indent, g.Run, cur.depth)
		if len(g.Txns) > 0 {
			fmt.Printf("%s  txns:", indent)
			for _, txn := range g.Txns {
				fmt.Printf(" %s", txn)
			}
			fmt.Println()
		}
		for _, tok := range g.Tokens {
			to := ""
			if len(tok.Recipients) > 0 {
				parts := make([]string, len(tok.Recipients))
				for i, r := range tok.Recipients {
					parts[i] = string(r)
				}
				to = " -> " + strings.Join(parts, ",")
			}
			fmt.Printf("%s  seq %-8d %-14s step %-3d %s%s\n", indent, tok.Seq, tok.Kind, tok.Step, tok.Issuer, to)
		}
		if len(g.Parties) > 0 {
			fmt.Printf("%s  parties:", indent)
			for _, p := range g.Parties {
				fmt.Printf(" %s", p)
			}
			fmt.Println()
		}
		for _, derived := range g.Derived {
			if visited[derived] {
				continue
			}
			visited[derived] = true
			if cur.depth+1 > hops {
				fmt.Printf("%s  derived (beyond -hops): %s\n", indent, derived)
				continue
			}
			queue = append(queue, hop{run: derived, depth: cur.depth + 1})
		}
	}
	fmt.Printf("\nprovenance: %d runs within %d hops of %s\n", printed, hops, root)
	return 0
}
