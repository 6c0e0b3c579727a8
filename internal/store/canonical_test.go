package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/stamp"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// The direct canonical-JSON appenders (store.Record with its token, the
// token's signature and time-stamp) are checked against canon.Marshal,
// their oracle: each appender writes Marshal's bytes, or fails exactly
// where Marshal fails (a time RFC 3339 cannot write), and the chained
// hash is canon.Sum256's digest or fails where canon.Sum256 fails.

// hostileText holds the strings JSON quoting treats specially: named
// and coded escapes, DEL, the HTML characters left literal, invalid and
// truncated UTF-8, U+2028/U+2029 and a four-byte rune.
var hostileText = []string{
	"",
	`quote " backslash \`,
	"\x00\x01\b\f\n\r\t\x1f\x7f",
	"<a href='x'>&amp;</a>",
	"bad\xffbyte",
	"cut\xe2\x82",
	"\xed\xa0\x80",
	"line\xe2\x80\xa8para\xe2\x80\xa9",
	"four\U0001F600byte",
	"run-0123456789abcdef",
	"urn:org:a",
}

// hostileZones are offsets RFC 3339 renders (whole minutes under a day),
// ones MarshalJSON truncates (leftover seconds) and ones it refuses (a day
// or more).
var hostileZones = []*time.Location{
	time.UTC, time.Local,
	time.FixedZone("", 5*3600+30*60), time.FixedZone("", -(23*3600 + 59*60)),
	time.FixedZone("", 45), time.FixedZone("", -(3600 + 1)),
	time.FixedZone("", 24*3600), time.FixedZone("", -30*3600),
}

// hostileInstants are the zero time, both sides of the epoch, the ends
// of the four-digit years and beyond them.
var hostileInstants = []time.Time{
	{},
	time.Unix(-1, 999_999_999),
	time.Date(1066, 10, 14, 9, 0, 0, 5, time.UTC),
	time.Date(2026, 8, 8, 4, 5, 6, 120_000_000, time.UTC),
	time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
	time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(-1, 6, 1, 0, 0, 0, 0, time.UTC),
	time.Unix(1<<60, 0),
}

// chooser turns a byte string into the choices a hostile record is
// built from, so the fuzzer's mutations steer the record's shape; an
// exhausted chooser answers zero.
type chooser struct{ p []byte }

func (c *chooser) byte() byte {
	if len(c.p) == 0 {
		return 0
	}
	b := c.p[0]
	c.p = c.p[1:]
	return b
}

func (c *chooser) intn(n int) int { return int(c.byte()) % n }

func (c *chooser) raw(n int) []byte {
	n = min(n, len(c.p))
	out := append([]byte{}, c.p[:n]...)
	c.p = c.p[n:]
	return out
}

func (c *chooser) u64() uint64 {
	if c.intn(3) == 0 {
		return 0
	}
	var b [8]byte
	copy(b[:], c.raw(1+c.intn(8)))
	return binary.LittleEndian.Uint64(b[:])
}

func (c *chooser) text() string {
	switch c.intn(4) {
	case 0:
		return ""
	case 1:
		return hostileText[c.intn(len(hostileText))]
	default:
		return string(c.raw(c.intn(24)))
	}
}

func (c *chooser) blob() []byte {
	switch c.intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	default:
		return c.raw(1 + c.intn(40))
	}
}

func (c *chooser) blobs() [][]byte {
	n := c.intn(4)
	if n == 0 {
		return nil
	}
	out := [][]byte{}
	for ; n > 1; n-- {
		out = append(out, c.blob())
	}
	return out
}

func (c *chooser) when() time.Time {
	var at time.Time
	if c.intn(2) == 0 {
		at = hostileInstants[c.intn(len(hostileInstants))]
	} else {
		at = time.Unix(int64(c.u64()), int64(c.u64()%2e9))
	}
	if c.intn(3) == 0 {
		return at // as built: UTC, or the zero time's own location
	}
	return at.In(hostileZones[c.intn(len(hostileZones))])
}

func (c *chooser) signature() sig.Signature {
	s := sig.Signature{
		Algorithm: sig.Algorithm(c.byte()),
		KeyID:     c.text(),
		Bytes:     c.blob(),
	}
	if c.intn(3) == 0 {
		s.Period = uint32(c.u64())
		s.PublicHint = c.blob()
		s.Path = c.blobs()
	}
	if c.intn(3) == 0 {
		s.BatchRoot = c.blob()
		s.BatchPath = c.blobs()
		s.BatchIndex = uint32(c.u64())
	}
	return s
}

// record builds a record from the chooser's bytes: any text in any
// string field, nil and empty byte runs and lists, optional fields both
// ways, and hostile times.
func (c *chooser) record() *store.Record {
	rec := &store.Record{
		Seq:       c.u64(),
		At:        c.when(),
		Direction: store.Direction(c.text()),
		Note:      c.text(),
	}
	copy(rec.Prev[:], c.raw(32))
	copy(rec.Hash[:], c.raw(32))
	if c.intn(8) == 0 {
		return rec // a nil token: null, which only the decoders refuse
	}
	tok := &evidence.Token{
		Kind:      evidence.Kind(c.text()),
		Run:       id.Run(c.text()),
		Txn:       id.Txn(c.text()),
		Step:      int(int64(c.u64())),
		Issuer:    id.Party(c.text()),
		Service:   id.Service(c.text()),
		IssuedAt:  c.when(),
		Nonce:     c.text(),
		Signature: c.signature(),
	}
	switch n := c.intn(4); n {
	case 0:
	case 1:
		tok.Recipients = []id.Party{}
	default:
		for ; n > 1; n-- {
			tok.Recipients = append(tok.Recipients, id.Party(c.text()))
		}
	}
	copy(tok.Digest[:], c.raw(32))
	if c.intn(2) == 0 {
		tok.Timestamp = &stamp.Token{
			Time:      c.when(),
			TSA:       id.Party(c.text()),
			Serial:    c.u64(),
			Signature: c.signature(),
		}
		copy(tok.Timestamp.Digest[:], c.raw(32))
	}
	rec.Token = tok
	return rec
}

// sameAsMarshal checks one appender's output against canon.Marshal(v):
// equal bytes, or an error exactly where Marshal fails.
func sameAsMarshal(t testing.TB, what string, v any, got []byte, err error) {
	t.Helper()
	want, wantErr := canon.Marshal(v)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s appender error %v, canon.Marshal error %v", what, err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%s appender differs from canon.Marshal:\n want %s\n  got %s", what, want, got)
	}
}

// checkCanonical holds every appender rec reaches to its oracle, and the
// chained hash to canon.Sum256's digest, or to an error exactly where
// canon.Sum256 fails.
func checkCanonical(t testing.TB, rec *store.Record) {
	t.Helper()
	got, err := store.AppendRecordJSON(nil, rec)
	sameAsMarshal(t, "record", rec, got, err)

	clone := *rec
	clone.Hash = sig.Digest{}
	want, wantErr := canon.Sum256(&clone)
	h, err := store.ChainHash(rec)
	if (err == nil) != (wantErr == nil) || h != sig.Digest(want) && err == nil {
		t.Fatalf("chain hash %x (error %v), canon.Sum256 gives %x (error %v)", h, err, want, wantErr)
	}
	tok := rec.Token
	if tok == nil {
		return
	}
	got, err = tok.AppendCanonical(nil)
	sameAsMarshal(t, "token", tok, got, err)
	sameAsMarshal(t, "signature", &tok.Signature, tok.Signature.AppendCanonical(nil), nil)
	if ts := tok.Timestamp; ts != nil {
		got, err = ts.AppendCanonical(nil)
		sameAsMarshal(t, "time-stamp", ts, got, err)
	}
}

// FuzzCanonicalAppend builds a record from arbitrary bytes and holds the
// direct appenders to canon.Marshal.
func FuzzCanonicalAppend(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(448))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &chooser{p: data}
		checkCanonical(t, c.record())
	})
}

// quickRecord is a testing/quick generator of hostile records.
type quickRecord struct{ *store.Record }

func (quickRecord) Generate(r *rand.Rand, size int) reflect.Value {
	data := make([]byte, 64+r.Intn(64+8*size))
	r.Read(data)
	c := &chooser{p: data}
	return reflect.ValueOf(quickRecord{c.record()})
}

func TestQuickCanonicalAppend(t *testing.T) {
	t.Parallel()
	f := func(q quickRecord) bool {
		checkCanonical(t, q.Record)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalAppendGoldenRecords runs the issued shapes — time-stamped,
// batch-signed and forward-secure signatures among them — through the
// same check.
func TestCanonicalAppendGoldenRecords(t *testing.T) {
	t.Parallel()
	for _, rec := range goldenRecords(t) {
		checkCanonical(t, rec)
	}
}

// TestCanonicalFieldsPinned fails when a field is added to, removed from
// or retagged in a struct a direct appender writes: the appender must
// change with it, and this list after it.
func TestCanonicalFieldsPinned(t *testing.T) {
	pinned := map[reflect.Type]string{
		reflect.TypeOf(store.Record{}): `Seq uint64 "seq"; Prev sig.Digest "prev"; At time.Time "at"; ` +
			`Direction store.Direction "direction"; Note string "note,omitempty"; ` +
			`Token *evidence.Token "token"; Hash sig.Digest "hash"`,
		reflect.TypeOf(evidence.Token{}): `Kind evidence.Kind "kind"; Run id.Run "run"; Txn id.Txn "txn,omitempty"; ` +
			`Step int "step"; Issuer id.Party "issuer"; Recipients []id.Party "recipients,omitempty"; ` +
			`Service id.Service "service,omitempty"; Digest sig.Digest "digest"; IssuedAt time.Time "issued_at"; ` +
			`Nonce string "nonce,omitempty"; Signature sig.Signature "signature"; ` +
			`Timestamp *stamp.Token "timestamp,omitempty"; tbs unsafe.Pointer ""`,
		reflect.TypeOf(sig.Signature{}): `Algorithm sig.Algorithm "alg"; KeyID string "kid"; Bytes []uint8 "sig"; ` +
			`Period uint32 "period,omitempty"; PublicHint []uint8 "pub,omitempty"; Path [][]uint8 "path,omitempty"; ` +
			`BatchRoot []uint8 "batch_root,omitempty"; BatchPath [][]uint8 "batch_path,omitempty"; ` +
			`BatchIndex uint32 "batch_index,omitempty"`,
		reflect.TypeOf(stamp.Token{}): `Digest sig.Digest "digest"; Time time.Time "time"; TSA id.Party "tsa"; ` +
			`Serial uint64 "serial"; Signature sig.Signature "signature"`,
	}
	for typ, want := range pinned {
		var fields []string
		for _, f := range reflect.VisibleFields(typ) {
			fields = append(fields, fmt.Sprintf("%s %s %q", f.Name, f.Type, f.Tag.Get("json")))
		}
		if got := strings.Join(fields, "; "); got != want {
			t.Errorf("%s fields changed; update its canonical JSON appender, then this list:\n want %s\n  got %s", typ, want, got)
		}
	}
}

// TestChainerNextAllocs pins what chaining a record allocates: the
// record itself, and nothing for its hash.
func TestChainerNextAllocs(t *testing.T) {
	realm := testpki.MustRealm(org)
	tok := newToken(t, realm, id.NewRun(), 1)
	at := time.Date(2026, 8, 8, 4, 5, 6, 0, time.UTC)
	ch := store.NewChainer(0, sig.Digest{})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ch.Next(at, store.Generated, tok, "note"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Chainer.Next allocates %v times per record, want 1 (the record)", allocs)
	}
}

// TestInvalidUTF8TokenRefused: a token whose identifiers are not valid
// UTF-8 cannot be chained — every decoder would refuse the record it
// made — while a note is normalised, as it always was.
func TestInvalidUTF8TokenRefused(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	at := time.Date(2026, 8, 8, 4, 5, 6, 0, time.UTC)
	for name, mutate := range map[string]func(*evidence.Token){
		"run":       func(tok *evidence.Token) { tok.Run = "run-\xff" },
		"service":   func(tok *evidence.Token) { tok.Service = "svc\xfe" },
		"recipient": func(tok *evidence.Token) { tok.Recipients = []id.Party{"urn:org:b", "\xc0"} },
		"key id":    func(tok *evidence.Token) { tok.Signature.KeyID = "kid\xff" },
	} {
		tok := *newToken(t, realm, id.NewRun(), 1)
		mutate(&tok)
		if _, err := store.NextRecord(0, sig.Digest{}, at, store.Generated, &tok, ""); err == nil || !strings.Contains(err.Error(), "UTF-8") {
			t.Errorf("%s: NextRecord error %v, want a UTF-8 refusal", name, err)
		}
		if _, err := store.NewChainer(0, sig.Digest{}).Next(at, store.Generated, &tok, ""); err == nil || !strings.Contains(err.Error(), "UTF-8") {
			t.Errorf("%s: Chainer.Next error %v, want a UTF-8 refusal", name, err)
		}
	}
	if _, err := store.NextRecord(0, sig.Digest{}, at, store.Direction("gen\xff"), newToken(t, realm, id.NewRun(), 1), ""); err == nil {
		t.Error("NextRecord chained a direction that is not valid UTF-8")
	}
}
