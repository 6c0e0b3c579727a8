// Command nrverify audits an evidence bundle offline: it rebuilds a
// credential store from the bundle's certificates, verifies every
// evidence log's hash chain and every token's signature and attribution,
// and reconstructs per-run reports — the adjudicator's side of dispute
// resolution (paper section 3.1), with no live parties required.
//
// It can also audit a party's evidence vault in place — logs too large to
// export or load at once are verified as a stream through the vault's
// query engine, with -run/-txn narrowing the audit via the persistent
// indexes and -deep re-reading every sealed segment against its seal.
//
// With -remote it audits a live organisation's vault over the wire: the
// records stream to the adjudicator page by page through the
// coordinator's audit service, so a dispute can be evaluated without the
// audited party exporting anything — and, with -source, without the
// audited party at all: the named organisation's evidence is read from
// the remote peer's replica store instead (the disaster/uncooperative
// path).
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
// separation. Works against a local vault (-vault) or a live
// organisation (-remote).
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

// auditBundle audits an exported evidence bundle: each party's log on its
// own (hash chain and every token), then each invocation run judged from
// all the parties' records of it at once.
func auditBundle(dir, runFilter string) int {
	b, err := bundle.Read(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 1
	}
	creds, err := b.CredentialStore(clock.Real{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 1
	}
	adj := core.NewAdjudicator(creds)

	fmt.Printf("bundle: %d certificates, %d evidence logs\n\n", len(b.Certs), len(b.Logs))
	faulty := false
	var merged []*store.Record
	for _, p := range slices.Sorted(maps.Keys(b.Logs)) {
		report := adj.AuditStream(core.Records(b.Logs[p]))
		status := "CLEAN"
		if !report.Clean() {
			status = "FAULTY"
			faulty = true
		}
		fmt.Printf("log %-24s %3d records  chain=%v  %s\n", p, report.Records, report.ChainOK, status)
		if report.ChainError != "" {
			fmt.Printf("    chain: %s\n", report.ChainError)
		}
		printFaults(report.Faults)
		merged = append(merged, b.Logs[p]...)
	}

	fmt.Println("\nper-run reconstruction:")
	runs := byRun(merged)
	for _, run := range slices.Sorted(maps.Keys(runs)) {
		if runFilter != "" && string(run) != runFilter {
			continue
		}
		report, _ := adj.AuditRunStream(core.Records(runs[run]), run)
		if !report.RequestProven && !report.ResponseProven && len(report.Faults) == 0 {
			// Sharing-protocol runs have no invocation evidence; skip
			// the invocation reconstruction for them.
			continue
		}
		faulty = printRun(report) || faulty
	}

	if faulty {
		fmt.Println("\nverdict: evidence FAULTY")
		return 1
	}
	fmt.Println("\nverdict: all evidence verifies")
	return 0
}

// printRun prints what one run's evidence proves and the faults found in
// it, reporting whether there were any.
func printRun(report *core.RunReport) bool {
	flags := ""
	if report.Substituted {
		flags += " [TTP substitute]"
	}
	if report.Aborted {
		flags += " [aborted]"
	}
	fmt.Printf("  %s\n    client=%s server=%s request=%v receipt=%v response=%v resp-receipt=%v complete=%v%s\n",
		report.Run, report.Client, report.Server,
		report.RequestProven, report.ReceiptProven,
		report.ResponseProven, report.ResponseReceiptProven,
		report.Complete(), flags)
	printFaults(report.Faults)
	return len(report.Faults) > 0
}

func printFaults(faults []core.Fault) {
	for _, fault := range faults {
		fmt.Printf("    record %d: %s\n", fault.Seq, fault.Reason)
	}
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
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 1
	}
	defer v.Close()
	st := v.Stats()
	fmt.Printf("vault: %d records (%d sealed segments, %d in tail)\n", st.LastSeq, st.Segments, st.TailRecords)

	// A bare audit must not hand out a clean verdict on the cheap check
	// alone (open verifies the manifest chain and tail but never reads
	// sealed segment data), so with nothing narrower requested the audit
	// is a deep one.
	if !deep && bundleDir == "" && runFilter == "" && txnFilter == "" {
		deep = true
	}

	if deep {
		if err := v.DeepVerify(); err != nil {
			fmt.Printf("deep verify: %v\n\nverdict: evidence FAULTY\n", err)
			return 1
		}
		fmt.Println("deep verify: every sealed segment matches its seal")
	}

	var creds *credential.Store
	if bundleDir != "" {
		b, err := bundle.Read(bundleDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nrverify:", err)
			return 1
		}
		creds, err = b.CredentialStore(clock.Real{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "nrverify:", err)
			return 1
		}
	}

	q := vault.Query{Run: id.Run(runFilter), Txn: id.Txn(txnFilter)}
	filtered := runFilter != "" || txnFilter != ""
	if filtered {
		it := v.Query(q)
		var records []*store.Record
		for it.Next() {
			rec := it.Record()
			fmt.Printf("  seq %-8d %-12s run=%s kind=%s issuer=%s\n",
				rec.Seq, rec.Direction, rec.Token.Run, rec.Token.Kind, rec.Token.Issuer)
			records = append(records, rec)
		}
		if err := it.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "nrverify:", err)
			return 1
		}
		fmt.Printf("%d matching records\n", len(records))
		if creds == nil {
			fmt.Println("\nverdict: tamper-evidence chains verify (pass -bundle to verify tokens)")
			return 0
		}
		adj := core.NewAdjudicator(creds)
		faulty := false
		runs := byRun(records)
		for _, run := range slices.Sorted(maps.Keys(runs)) {
			report, _ := adj.AuditRunStream(core.Records(runs[run]), run)
			faulty = printRun(report) || faulty
		}
		if faulty {
			fmt.Println("\nverdict: evidence FAULTY")
			return 1
		}
		fmt.Println("\nverdict: filtered evidence verifies")
		return 0
	}

	if creds == nil {
		fmt.Println("tokens not verified (pass -bundle for signature checks)")
		fmt.Println("\nverdict: tamper-evidence chains verify")
		return 0
	}
	adj := core.NewAdjudicator(creds)
	report := adj.AuditStream(v.Query(vault.Query{}))
	status := "CLEAN"
	if !report.Clean() {
		status = "FAULTY"
	}
	fmt.Printf("stream audit: %d records  chain=%v  %s\n", report.Records, report.ChainOK, status)
	if report.ChainError != "" {
		fmt.Printf("    chain: %s\n", report.ChainError)
	}
	printFaults(report.Faults)
	if !report.Clean() {
		fmt.Println("\nverdict: evidence FAULTY")
		return 1
	}
	fmt.Println("\nverdict: all evidence verifies")
	return 0
}

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

// auditRemote audits a live organisation's evidence over the wire: an
// ephemeral coordinator is registered on a local TCP port and the audit
// service at addr streams records to it page by page. With a bundle
// supplying certificates every token is signature-checked; without one
// only stream integrity (the serving vault's chains) is covered.
func auditRemote(addr, bundleDir, source, runFilter string, page int) int {
	clk := clock.Real{}
	net := transport.NewTCPNetwork()
	defer net.Close()
	svc := &protocol.Services{
		Party:     "urn:nonrep:nrverify",
		Clock:     clk,
		Directory: protocol.NewDirectory(),
	}
	co, err := protocol.New(net, "127.0.0.1:0", svc)
	if err != nil {
		// Setup failures produce no verdict: exit 2, never the
		// evidence-FAULTY code.
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 2
	}
	defer co.Close()
	client := protocol.NewAuditClient(co)
	if page > 0 {
		client.SetPage(page)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	target := "the remote organisation's own vault"
	if source != "" {
		target = fmt.Sprintf("the remote replica of %s", source)
	}
	fmt.Printf("remote audit of %s via %s\n", target, addr)

	var creds *credential.Store
	if bundleDir != "" {
		b, err := bundle.Read(bundleDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nrverify:", err)
			return 2
		}
		if creds, err = b.CredentialStore(clk); err != nil {
			fmt.Fprintln(os.Stderr, "nrverify:", err)
			return 2
		}
	}

	if runFilter != "" {
		if creds == nil {
			fmt.Fprintln(os.Stderr, "nrverify: -run in remote mode needs -bundle for signature checks")
			return 2
		}
		adj := core.NewAdjudicator(creds)
		it := client.QueryAddr(ctx, addr, vault.Query{Run: id.Run(runFilter)}, source)
		report, err := adj.AuditRunStream(it, id.Run(runFilter))
		if err != nil {
			fmt.Fprintln(os.Stderr, "nrverify:", err)
			if integrityError(err) {
				fmt.Println("\nverdict: evidence FAULTY")
				return 1
			}
			fmt.Fprintln(os.Stderr, "nrverify: could not audit (no verdict)")
			return 2
		}
		if printRun(report) {
			fmt.Println("\nverdict: evidence FAULTY")
			return 1
		}
		fmt.Println("\nverdict: run evidence verifies")
		return 0
	}

	if creds == nil {
		// Stream the whole log and verify chain integrity only: the
		// remote iterator surfaces any serving-side seal or chain break
		// as a stream error.
		it := client.QueryAddr(ctx, addr, vault.Query{}, source)
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "nrverify: %v\n", err)
			if integrityError(err) {
				fmt.Println("\nverdict: evidence FAULTY")
				return 1
			}
			fmt.Fprintln(os.Stderr, "nrverify: could not audit (no verdict)")
			return 2
		}
		fmt.Printf("streamed %d records (pass -bundle for signature checks)\n", n)
		fmt.Println("\nverdict: remote evidence streams and chains verify")
		return 0
	}

	adj := core.NewAdjudicator(creds)
	it := client.QueryAddr(ctx, addr, vault.Query{}, source)
	report := adj.AuditStream(it)
	if err := it.Err(); err != nil && !integrityError(err) {
		// The stream died for transport reasons; whatever partial report
		// exists is not a verdict on the evidence.
		fmt.Fprintf(os.Stderr, "nrverify: %v\nnrverify: could not audit (no verdict)\n", err)
		return 2
	}
	status := "CLEAN"
	if !report.Clean() {
		status = "FAULTY"
	}
	fmt.Printf("stream audit: %d records  chain=%v  %s\n", report.Records, report.ChainOK, status)
	if report.ChainError != "" {
		fmt.Printf("    chain: %s\n", report.ChainError)
	}
	printFaults(report.Faults)
	if !report.Clean() {
		fmt.Println("\nverdict: evidence FAULTY")
		return 1
	}
	fmt.Println("\nverdict: all evidence verifies")
	return 0
}

// followRemote subscribes to a live organisation's evidence feed over
// TCP and prints every record as its group commit lands. The feed client
// verifies the hash chain on receipt — a gap, duplicate or forgery ends
// the stream with an error — and with a bundle every token's signature
// and attribution are checked too. Runs until interrupted (or -for
// elapses); a publisher eviction reports the resume position.
func followRemote(addr, bundleDir string, forDur time.Duration) int {
	clk := clock.Real{}
	net := transport.NewTCPNetwork()
	defer net.Close()
	svc := &protocol.Services{
		Party:     "urn:nonrep:nrverify",
		Clock:     clk,
		Directory: protocol.NewDirectory(),
	}
	co, err := protocol.New(net, "127.0.0.1:0", svc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 2
	}
	defer co.Close()

	var verifier *evidence.Verifier
	if bundleDir != "" {
		b, err := bundle.Read(bundleDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nrverify:", err)
			return 2
		}
		creds, err := b.CredentialStore(clk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nrverify:", err)
			return 2
		}
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
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 2
	}
	defer v.Close()
	return provWalk(run, hops, v.Provenance)
}

// provRemote prints the provenance graph of a run served by a live
// organisation's subscription service.
func provRemote(addr string, run id.Run, hops int) int {
	net := transport.NewTCPNetwork()
	defer net.Close()
	svc := &protocol.Services{
		Party:     "urn:nonrep:nrverify",
		Clock:     clock.Real{},
		Directory: protocol.NewDirectory(),
	}
	co, err := protocol.New(net, "127.0.0.1:0", svc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrverify:", err)
		return 2
	}
	defer co.Close()
	client := protocol.NewSubClient(co)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	return provWalk(run, hops, func(r id.Run) (*vault.ProvGraph, error) {
		return client.ProvenanceAddr(ctx, addr, r)
	})
}

// provWalk prints the provenance neighbourhood of root and walks its
// derived runs breadth-first to the requested degrees of separation,
// printing each visited run's graph exactly once.
func provWalk(root id.Run, hops int, fetch func(id.Run) (*vault.ProvGraph, error)) int {
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
		g, err := fetch(cur.run)
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

// byRun groups records by their token's run.
func byRun(records []*store.Record) map[id.Run][]*store.Record {
	runs := make(map[id.Run][]*store.Record)
	for _, rec := range records {
		if rec.Token != nil {
			runs[rec.Token.Run] = append(runs[rec.Token.Run], rec)
		}
	}
	return runs
}
