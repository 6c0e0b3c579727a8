package stamp

import (
	"errors"
	"testing"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

func newTSA(t *testing.T) (*Authority, *credential.Store, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual(time.Date(2004, 3, 25, 9, 0, 0, 0, time.UTC))
	key, err := sig.GenerateEd25519("tsa-key")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := credential.NewRootAuthority("urn:ttp:tsa", key, clk)
	if err != nil {
		t.Fatal(err)
	}
	store := credential.NewStore(clk)
	if err := store.AddRoot(ca.Certificate()); err != nil {
		t.Fatal(err)
	}
	return NewAuthority("urn:ttp:tsa", key, clk), store, clk
}

func TestStampAndVerify(t *testing.T) {
	t.Parallel()
	tsa, store, clk := newTSA(t)
	d := sig.Sum([]byte("evidence bytes"))
	tok, err := tsa.Stamp(d)
	if err != nil {
		t.Fatal(err)
	}
	if !tok.Time.Equal(clk.Now()) {
		t.Errorf("token time = %v, want %v", tok.Time, clk.Now())
	}
	if tok.TSA != tsa.Party() {
		t.Errorf("token TSA = %v", tok.TSA)
	}
	if err := Verify(tok, d, store); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsDigestMismatch(t *testing.T) {
	t.Parallel()
	tsa, store, _ := newTSA(t)
	tok, err := tsa.Stamp(sig.Sum([]byte("a")))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tok, sig.Sum([]byte("b")), store); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("Verify = %v, want ErrDigestMismatch", err)
	}
}

func TestVerifyRejectsTamperedTime(t *testing.T) {
	t.Parallel()
	tsa, store, _ := newTSA(t)
	d := sig.Sum([]byte("a"))
	tok, err := tsa.Stamp(d)
	if err != nil {
		t.Fatal(err)
	}
	tok.Time = tok.Time.Add(time.Hour) // back-date attack
	if err := Verify(tok, d, store); err == nil {
		t.Fatal("Verify accepted tampered timestamp")
	}
}

func TestSerialsIncrease(t *testing.T) {
	t.Parallel()
	tsa, _, _ := newTSA(t)
	d := sig.Sum([]byte("a"))
	t1, err := tsa.Stamp(d)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := tsa.Stamp(d)
	if err != nil {
		t.Fatal(err)
	}
	if t2.Serial <= t1.Serial {
		t.Fatalf("serials not increasing: %d then %d", t1.Serial, t2.Serial)
	}
}

func TestVerifyUnknownTSA(t *testing.T) {
	t.Parallel()
	tsa, _, clk := newTSA(t)
	d := sig.Sum([]byte("a"))
	tok, err := tsa.Stamp(d)
	if err != nil {
		t.Fatal(err)
	}
	empty := credential.NewStore(clk)
	if err := Verify(tok, d, empty); err == nil {
		t.Fatal("Verify accepted token from unknown TSA")
	}
}

// tokenTBS is the to-be-signed portion of a token as encoding/json sees
// it: the oracle tbsDigest's appender is held to.
type tokenTBS struct {
	Digest sig.Digest `json:"digest"`
	Time   time.Time  `json:"time"`
	TSA    id.Party   `json:"tsa"`
	Serial uint64     `json:"serial"`
}

// TestTBSDigestMatchesReflection holds tbsDigest's direct appender to its
// oracle, canon.Sum256 over tokenTBS, across hostile TSA names and times:
// the same digest, or an error exactly where the oracle fails.
func TestTBSDigestMatchesReflection(t *testing.T) {
	for _, tsa := range []id.Party{"", "urn:ttp:tsa", `q"b\`, "\x00\x7f<>&", "bad\xff", "\xe2\x80\xa8\U0001F600"} {
		for _, at := range []time.Time{
			{},
			time.Date(1900, 2, 3, 4, 5, 6, 7, time.FixedZone("", 11*3600)),
			time.Date(2026, 8, 8, 4, 5, 6, 120_000_000, time.UTC),
			time.Date(-5, 1, 1, 0, 0, 0, 0, time.UTC),
			time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", -7)),
			time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		} {
			tok := &Token{Digest: sig.Sum([]byte(tsa)), Time: at, TSA: tsa, Serial: uint64(at.Unix())}
			want, wantErr := sig.SumCanonical(tokenTBS{Digest: tok.Digest, Time: tok.Time, TSA: tok.TSA, Serial: tok.Serial})
			got, err := tok.tbsDigest()
			if (err == nil) != (wantErr == nil) || got != want {
				t.Fatalf("token %+v: tbsDigest %x (error %v), canon.Sum256 %x (error %v)", tok, got, err, want, wantErr)
			}
		}
	}
}
