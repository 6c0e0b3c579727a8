package vault_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

const peerOrg = id.Party("urn:org:b")

// fixtureVault is a checked-in vault written by the build before a format
// change: its directory under testdata, the format its segments hold, how
// many of them are sealed, the records of its unsealed tail and the last
// record sealed and held. RUNS.json beside it names its runs.
type fixtureVault struct {
	name               string
	enc                store.Encoding
	sealed, tail       int
	sealedSeq, lastSeq uint64
}

var (
	// v3Vault was written by the build before segment format 4, as a
	// server logs invocations: five runs, each a {NRO received, NRR,
	// NROResp generated} group and (but for the last) the receipt in a
	// commit of its own, every second run under a transaction; segments of
	// 7 and 8 records sealed, a four-record version-3 tail in segment 3.
	v3Vault = fixtureVault{name: "v3-vault", enc: store.EncBinaryV3, sealed: 2, tail: 4, sealedSeq: 15, lastSeq: 19}
	// v4Vault was written by the build before segment format 5, as a
	// durable client journals five calls: per run its job's spec and
	// outcome and the four tokens of the invocation, the spec and the
	// journaled response snapshot as JSON text; three sealed segments of
	// eight records, a six-record version-4 tail in segment 4.
	v4Vault = fixtureVault{name: "v4-vault", enc: store.EncBinaryV4, sealed: 3, tail: 6, sealedSeq: 24, lastSeq: 30}
)

// stepGroup is the evidence of one server step of an invocation: the
// request's origin token received, its receipt and the response's origin
// generated — three tokens of one run between the same two parties.
func stepGroup(t testing.TB, realm *testpki.Realm, run id.Run, opts ...evidence.IssueOption) []store.Entry {
	t.Helper()
	issue := func(p id.Party, to id.Party, kind evidence.Kind, step int, what string) *evidence.Token {
		all := append([]evidence.IssueOption{evidence.WithRecipients(to), evidence.WithService("urn:org:a/orders")}, opts...)
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, sig.Sum([]byte(what)), all...)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	return []store.Entry{
		{Dir: store.Received, Token: issue(peerOrg, org, evidence.KindNRO, 1, "request"), Note: "request origin"},
		{Dir: store.Generated, Token: issue(org, peerOrg, evidence.KindNRR, 2, "request"), Note: "request receipt"},
		{Dir: store.Generated, Token: issue(org, peerOrg, evidence.KindNROResp, 3, "response"), Note: "response origin (ok)"},
	}
}

// sameRecords fails unless got holds exactly want, record for record, by
// canonical projection and hash.
func sameRecords(t testing.TB, what string, want, got []*store.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		w, err := canon.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		g, err := canon.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, g) || want[i].Hash != got[i].Hash {
			t.Fatalf("%s: record %d differs:\n want %s\n  got %s", what, want[i].Seq, w, g)
		}
	}
}

// checkFixtureVault holds a vault that starts with a fixture's records
// to every read surface.
func checkFixtureVault(t testing.TB, what string, v *vault.Vault, runs []parentVaultRun) {
	t.Helper()
	if err := v.DeepVerify(); err != nil {
		t.Fatalf("%s: DeepVerify: %v", what, err)
	}
	for _, r := range runs {
		if got := len(v.ByRun(r.Run)); got != r.Records {
			t.Fatalf("%s: ByRun(%s) = %d records, want %d", what, r.Run, got, r.Records)
		}
		if r.Txn != "" {
			if got := len(testpki.Query(t, v, store.Query{Txn: r.Txn})); got != r.Records {
				t.Fatalf("%s: ByTxn(%s) = %d records, want %d", what, r.Txn, got, r.Records)
			}
		}
	}
	// A server's vault holds the receipts it issued, a client's those its
	// servers issued.
	nrrs := 0
	for _, p := range []id.Party{org, peerOrg} {
		got, err := v.QueryAll(vault.Query{Kind: evidence.KindNRR, Party: p})
		if err != nil {
			t.Fatalf("%s: kind+party query: %v", what, err)
		}
		nrrs += len(got)
	}
	if nrrs < len(runs) {
		t.Fatalf("%s: kind+party queries = %d records, want at least %d", what, nrrs, len(runs))
	}
}

// TestVaultV3VaultStillReads: a vault the build before format 4 wrote
// reads as checkStillReads says.
func TestVaultV3VaultStillReads(t *testing.T) {
	t.Parallel()
	checkStillReads(t, v3Vault)
}

// TestVaultV4VaultStillReads: a vault the build before format 5 wrote —
// its journaled JSON notes stored as text — reads as checkStillReads says.
func TestVaultV4VaultStillReads(t *testing.T) {
	t.Parallel()
	checkStillReads(t, v4Vault)
}

// checkStillReads: a vault an earlier build wrote opens read-only without
// a byte moving, verifies, answers keyed queries out of its old
// segments, reports them in their format, and replicates — the replica
// holds the sealed files byte for byte.
func checkStillReads(t *testing.T, fx fixtureVault) {
	dir, runs := copyFixtureVault(t, fx.name)
	before := dirDigests(t, dir)
	ro := openVault(t, dir, vault.WithReadOnly())
	if st := ro.Stats(); st.Segments != fx.sealed || st.TailRecords != fx.tail || st.LastSeq != fx.lastSeq {
		t.Fatalf("%s shape = %+v", fx.name, st)
	}
	checkFixtureVault(t, "read-only", ro, runs)
	sizes, err := ro.Sizes()
	if err != nil || len(sizes) != fx.sealed+1 {
		t.Fatalf("Sizes = %+v, err %v", sizes, err)
	}
	for _, s := range sizes {
		// Version 3 knows no followers.
		if s.Format != fx.enc.String() || (fx.enc == store.EncBinaryV3 && s.Followers != 0) {
			t.Fatalf("segment %d reported as %+v, want %v", s.Segment, s, fx.enc)
		}
	}
	// Pushed in the current format, the records come back the same.
	all, err := ro.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	pushed, err := store.AppendFrameRun(nil, all)
	if err != nil {
		t.Fatal(err)
	}
	var back []*store.Record
	if err := store.DecodeFrameRun(pushed, func(rec *store.Record) error {
		back = append(back, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "re-encoded", all, back)
	rs, err := vault.OpenReplicaSet(filepath.Join(t.TempDir(), "replicas"))
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, ro, rs)
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirDigests(t, dir); len(after) != len(before) {
		t.Fatalf("read-only open changed the directory: %d -> %d files", len(before), len(after))
	} else {
		sameFiles(t, "read-only open", before, after)
	}
	replicaFiles := dirDigests(t, rs.Dir(sourceOrg))
	for seg := uint64(1); seg <= uint64(fx.sealed); seg++ {
		for _, name := range []string{segFileName(seg), idxFileName(seg)} {
			if replicaFiles[name] != before[name] {
				t.Fatalf("replica's %s differs from the source's", name)
			}
		}
	}
	replica := openVault(t, rs.Dir(sourceOrg), vault.WithReadOnly())
	defer replica.Close()
	if st := replica.Stats(); st.Segments != fx.sealed || st.LastSeq != fx.sealedSeq {
		t.Fatalf("replica shape = %+v", st)
	}
	if err := replica.DeepVerify(); err != nil {
		t.Fatal(err)
	}
}

// TestVaultV3TailSealedAsItStands: a version-3 tail is sealed as
// checkTailSealedAsItStands says.
func TestVaultV3TailSealedAsItStands(t *testing.T) {
	t.Parallel()
	checkTailSealedAsItStands(t, v3Vault)
}

// TestVaultV4TailSealedAsItStands: a version-4 tail is sealed as
// checkTailSealedAsItStands says.
func TestVaultV4TailSealedAsItStands(t *testing.T) {
	t.Parallel()
	checkTailSealedAsItStands(t, v4Vault)
}

// checkTailSealedAsItStands opens a vault an earlier build wrote for
// writing: its tail is sealed as it stands — never extended with frames of
// this format, never rewritten — the next records start a segment of the
// current format in which a step's group shares, and a replica that held
// the old tail file has it replaced, not extended, by the next push.
func checkTailSealedAsItStands(t *testing.T, fx fixtureVault) {
	realm := testpki.MustRealm(org, peerOrg)
	dir, runs := copyFixtureVault(t, fx.name)
	before := dirDigests(t, dir)
	delete(before, "MANIFEST") // append-only: grows
	tailSeg := uint64(fx.sealed + 1)
	oldTail, err := os.ReadFile(filepath.Join(dir, segFileName(tailSeg)))
	if err != nil {
		t.Fatal(err)
	}

	// A replica of the sealed history that also holds the tail as the
	// earlier build's pushes left it.
	root := filepath.Join(t.TempDir(), "replicas")
	rs, err := vault.OpenReplicaSet(root)
	if err != nil {
		t.Fatal(err)
	}
	ro := openVault(t, dir, vault.WithReadOnly())
	shipAll(t, ro, rs)
	ro.Close()
	replicaTail := filepath.Join(rs.Dir(sourceOrg), segFileName(tailSeg))
	if err := os.WriteFile(replicaTail, oldTail, 0o600); err != nil {
		t.Fatal(err)
	}
	if rs, err = vault.OpenReplicaSet(root); err != nil {
		t.Fatal(err)
	}
	if seq, err := rs.AckedSeq(sourceOrg); err != nil || seq != fx.lastSeq {
		t.Fatalf("replica with a %v tail acknowledges %d, err %v, want %d", fx.enc, seq, err, fx.lastSeq)
	}

	v := openVault(t, dir, vault.WithSegmentRecords(8))
	defer v.Close()
	if st := v.Stats(); st.Segments != fx.sealed+1 || st.TailRecords != 0 || st.LastSeq != fx.lastSeq {
		t.Fatalf("after sealing the %v tail: %+v", fx.enc, st)
	}
	run := id.NewRun()
	fresh, err := v.AppendGroup(stepGroup(t, realm, run))
	if err != nil {
		t.Fatal(err)
	}
	sameFiles(t, "sealing an old tail", before, dirDigests(t, dir))
	for seg, want := range map[uint64]store.Encoding{tailSeg: fx.enc, tailSeg + 1: store.EncBinary} {
		data, err := os.ReadFile(filepath.Join(dir, segFileName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if got := store.DetectEncoding(data); got != want {
			t.Fatalf("segment %d is %v, want %v", seg, got, want)
		}
	}
	checkFixtureVault(t, "grown", v, append(runs, parentVaultRun{Run: run, Records: 3}))
	sizes, err := v.Sizes()
	if err != nil || len(sizes) != fx.sealed+2 {
		t.Fatalf("Sizes = %+v, err %v", sizes, err)
	}
	if s := sizes[fx.sealed]; s.Format != fx.enc.String() || !s.Sealed || s.Records != fx.tail || s.IndexFormat != "binary" {
		t.Fatalf("the sealed %v tail reported as %+v, want it under this build's index", fx.enc, s)
	}
	if s := sizes[fx.sealed+1]; s.Format != "binary" || s.Sealed || s.Records != 3 || s.Followers != 2 || s.FollowerBytes/2 >= (s.SegmentBytes-s.FollowerBytes)*2/3 {
		t.Fatalf("the new tail reported as %+v, want two followers each under two thirds of the plain frame", s)
	}

	// The push of the new records replaces the replica's old tail file; the
	// seal of that segment — the old bytes — then rebases.
	if seq, err := rs.ReceiveTail(sourceOrg, fresh); err != nil || seq != fx.lastSeq+3 {
		t.Fatalf("ReceiveTail onto a %v tail = %d, err %v, want %d", fx.enc, seq, err, fx.lastSeq+3)
	}
	replaced, err := os.ReadFile(replicaTail)
	if err != nil {
		t.Fatal(err)
	}
	if enc := store.DetectEncoding(replaced); enc != store.EncBinary {
		t.Fatalf("tail file after the push is %v, want the current format", enc)
	}
	pkg, err := v.Package(tailSeg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkg.Data, oldTail) {
		t.Fatalf("the source sealed something other than the %v tail as it stood", fx.enc)
	}
	if err := rs.Receive(sourceOrg, pkg); err != nil {
		t.Fatal(err)
	}
	if src, dst := dirDigests(t, dir), dirDigests(t, rs.Dir(sourceOrg)); dst[idxFileName(tailSeg)] != src[idxFileName(tailSeg)] {
		t.Fatalf("the replica derived another index for the sealed %v tail", fx.enc)
	}
	replica := openVault(t, rs.Dir(sourceOrg), vault.WithReadOnly())
	defer replica.Close()
	if st := replica.Stats(); st.Segments != fx.sealed+1 || st.TailRecords != 3 || st.LastSeq != fx.lastSeq+3 {
		t.Fatalf("replica after the seal shipped: %+v", st)
	}
	checkFixtureVault(t, "replica", replica, append(runs, parentVaultRun{Run: run, Records: 3}))
}

// TestVaultFollowersOnDisk drives format 4 through every place frames
// land: a vault whose commits are step groups and lone receipts writes
// two followers per group; scans, keyed reads and reopening return the
// records appended; Sizes counts the followers; a replica fed by tail
// pushes shares inside each push, rebases its tail under a seal, and
// ends up with the source's sealed bytes.
func TestVaultFollowersOnDisk(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org, peerOrg)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(8))
	rs, err := vault.OpenReplicaSet(filepath.Join(t.TempDir(), "replicas"))
	if err != nil {
		t.Fatal(err)
	}
	var all []*store.Record
	byRun := make(map[id.Run][]*store.Record)
	for i := 0; i < 5; i++ {
		run := id.NewRun()
		var opts []evidence.IssueOption
		if i%2 == 1 {
			opts = append(opts, evidence.WithTxn(id.NewTxn()))
		}
		group := stepGroup(t, realm, run, opts...)
		recs, err := v.AppendGroup(group)
		if err != nil {
			t.Fatal(err)
		}
		receipt, err := v.Append(store.Received, group[0].Token, "response receipt (consumed)")
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, receipt)
		// One push per invocation: the four records share in the replica's
		// tail as they arrive, the receipt too.
		if _, err := rs.ReceiveTail(sourceOrg, recs); err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
		byRun[run] = recs
	}
	// 20 records: segments of 8 sealed twice, four in the tail.
	check := func(what string, v *vault.Vault) {
		t.Helper()
		if err := v.DeepVerify(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got, err := v.QueryAll(vault.Query{})
		if err != nil {
			t.Fatalf("%s: scan: %v", what, err)
		}
		sameRecords(t, what+": scan", all, got)
		for run, want := range byRun {
			sameRecords(t, what+": ByRun", want, v.ByRun(run))
		}
		if got, err := v.QueryAll(vault.Query{Kind: evidence.KindNROResp}); err != nil || len(got) != 5 {
			t.Fatalf("%s: the followers of a kind = %d records, err %v, want 5", what, len(got), err)
		}
	}
	check("live", v)
	sizes, err := v.Sizes()
	if err != nil || len(sizes) != 3 {
		t.Fatalf("Sizes = %+v, err %v", sizes, err)
	}
	for _, s := range sizes {
		// Of each run's four records only the first is plain: the receipt
		// in a commit of its own follows the run's leader in the commit
		// before.
		if want := s.Records * 3 / 4; s.Format != "binary" || s.Followers != want || s.FollowerBytes <= 0 ||
			float64(s.FollowerBytes)/float64(s.Followers) > 0.8*float64(s.SegmentBytes-s.FollowerBytes)/float64(s.Records-s.Followers) {
			t.Fatalf("segment %d reported as %+v, want %d followers well under a plain frame's size", s.Segment, s, want)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	re := openVault(t, dir, vault.WithReadOnly())
	check("reopened", re)

	// The replica's tail holds all twenty records, pushed four at a time:
	// three followers per push.
	tailFile := filepath.Join(rs.Dir(sourceOrg), segFileName(1))
	pushed, err := os.ReadFile(tailFile)
	if err != nil {
		t.Fatal(err)
	}
	if count, err := store.CountFrames(pushed); err != nil || count.Followers != 15 {
		t.Fatalf("replica tail of five pushes holds %d followers, err %v, want 15", count.Followers, err)
	}
	shipAll(t, re, rs)
	re.Close()
	for seg := uint64(1); seg <= 2; seg++ {
		src, err := os.ReadFile(filepath.Join(dir, segFileName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.ReadFile(filepath.Join(rs.Dir(sourceOrg), segFileName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src, dst) {
			t.Fatalf("segment %d: the replica's sealed file is not the source's", seg)
		}
	}
	// The rebased tail (records 17-20, one run) is one write again.
	rebased, err := os.ReadFile(filepath.Join(rs.Dir(sourceOrg), segFileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if count, err := store.CountFrames(rebased); err != nil || count.Followers != 3 {
		t.Fatalf("rebased replica tail holds %d followers, err %v, want 3", count.Followers, err)
	}
	replica := openVault(t, rs.Dir(sourceOrg), vault.WithReadOnly())
	defer replica.Close()
	check("replica", replica)
}

// TestVaultEditedLeaderBreaksFollowerRead: what a follower borrows is
// authenticated with it. An attacker who edits a sealed leader frame and
// fixes its checksum up changes what its followers decode to, so the
// keyed read of a follower alone — which never digests the leader —
// still fails the hash the seal pins, whether the follower shares the
// leader's commit or leans on it from a later one; and a follower
// re-pointed at another frame fails to decode at all.
func TestVaultEditedLeaderBreaksFollowerRead(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org, peerOrg)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(7))
	runs := []id.Run{id.NewRun(), id.NewRun()}
	for _, run := range runs {
		if _, err := v.AppendGroup(stepGroup(t, realm, run)); err != nil {
			t.Fatal(err)
		}
	}
	// The first run's receipt, in a commit of its own after the second
	// run's: a follower of the first commit's leader.
	receipt, err := realm.Party(peerOrg).Issuer.Issue(evidence.KindNRRResp, runs[0], 4, sig.Sum([]byte("response")),
		evidence.WithRecipients(org), evidence.WithService("urn:org:a/orders"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Append(store.Received, receipt, "response receipt (consumed)"); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, segFileName(1))
	good, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, good)
	if len(offs) != 8 {
		t.Fatalf("sealed segment holds %d frames, want 7", len(offs)-1)
	}
	if _, w := binary.Uvarint(good[offs[6]:]); good[offs[6]+int64(w)]&0x80 == 0 {
		t.Fatal("control: the receipt of a later commit is not a follower")
	}
	refit := func(frame []byte) { // recompute a frame's checksum in place
		_, w := binary.Uvarint(frame)
		binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.Checksum(frame[w:len(frame)-4], crc32.MakeTable(crc32.Castagnoli)))
	}
	// The followers' issuer is a reference to the leader's recipient: make
	// that another organisation.
	forged := append([]byte(nil), good...)
	leader := forged[offs[0]:offs[1]]
	at := bytes.LastIndex(leader, []byte(org))
	if at < 0 {
		t.Fatal("leader frame does not spell its recipient")
	}
	leader[at+len(org)-1] = 'x'
	refit(leader)
	// And in a second image, the second group's last follower points at
	// the first group's leader.
	repointed := append([]byte(nil), good...)
	frame := repointed[offs[5]:offs[6]]
	_, w := binary.Uvarint(frame) // then the flags: the follower elides its seq and Prev
	if back, n := binary.Uvarint(frame[w+1:]); n != 2 || back != uint64(offs[5]-offs[3]) {
		t.Fatalf("follower's back-distance reads %d (%d bytes), want %d", back, n, offs[5]-offs[3])
	}
	binary.PutUvarint(frame[w+1:], uint64(offs[5]-offs[0]))
	refit(frame)
	for name, image := range map[string][]byte{"edited leader": forged, "re-pointed follower": repointed} {
		if err := os.WriteFile(sealed, image, 0o600); err != nil {
			t.Fatal(err)
		}
		re := openVault(t, dir, vault.WithReadOnly())
		run := runs[0]
		if name == "re-pointed follower" {
			run = runs[1]
		}
		if recs, err := re.QueryAll(vault.Query{Run: run, Kind: evidence.KindNROResp}); !errors.Is(err, vault.ErrSealBroken) {
			t.Fatalf("%s: keyed read of a follower = %d records, err %v, want ErrSealBroken", name, len(recs), err)
		}
		if name == "edited leader" {
			if recs, err := re.QueryAll(vault.Query{Run: run, Kind: evidence.KindNRRResp}); !errors.Is(err, vault.ErrSealBroken) {
				t.Fatalf("%s: keyed read of a follower from a later commit = %d records, err %v, want ErrSealBroken", name, len(recs), err)
			}
		}
		if recs, err := re.QueryAll(vault.Query{}); !errors.Is(err, vault.ErrSealBroken) || len(recs) != 0 {
			t.Fatalf("%s: scan = %d records, err %v, want none and ErrSealBroken", name, len(recs), err)
		}
		if err := re.DeepVerify(); !errors.Is(err, vault.ErrSealBroken) {
			t.Fatalf("%s: DeepVerify = %v, want ErrSealBroken", name, err)
		}
		re.Close()
	}
}
