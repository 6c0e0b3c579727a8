package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

const org = id.Party("urn:org:a")

func newToken(t testing.TB, realm *testpki.Realm, run id.Run, step int) *evidence.Token {
	t.Helper()
	tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, run, step, sig.Sum([]byte(fmt.Sprintf("content-%d", step))))
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// chain holds records linked the way a log links them: each built by
// NextRecord from the one before.
type chain []*store.Record

func (c *chain) add(t testing.TB, at time.Time, dir store.Direction, tok *evidence.Token, note string) *store.Record {
	t.Helper()
	var seq uint64
	var prev sig.Digest
	if n := len(*c); n > 0 {
		seq, prev = (*c)[n-1].Seq, (*c)[n-1].Hash
	}
	rec, err := store.NextRecord(seq, prev, at, dir, tok, note)
	if err != nil {
		t.Fatal(err)
	}
	*c = append(*c, rec)
	return rec
}

func TestChainDetectsTampering(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	var records chain
	run := id.NewRun()
	for i := 1; i <= 5; i++ {
		records.add(t, realm.Clock.Now(), store.Generated, newToken(t, realm, run, i), "")
	}
	if err := verifyRecords(records); err != nil {
		t.Fatalf("untampered chain: %v", err)
	}
	records[2].Note = "tampered after the fact"
	if err := verifyRecords(records); err == nil {
		t.Fatal("chain verification accepted tampered record")
	}
}

// verifyRecords re-checks a chain outside the log (as an adjudicator
// would, given only the records), exercising the JSON round trip a
// submitted log goes through.
func verifyRecords(records []*store.Record) error {
	data, err := json.Marshal(records)
	if err != nil {
		return err
	}
	var decoded []*store.Record
	if err := json.Unmarshal(data, &decoded); err != nil {
		return err
	}
	return store.VerifyRecords(decoded)
}

// TestReadJSONLinesRecoveryRules pins the crash-recovery rules of the
// JSON-lines reader under the vault's manifests (legacy JSON segments
// scan by the same rules):
// a final line missing its newline was never acknowledged and is dropped
// as torn even when it parses, a partial final line likewise, and a
// garbled line that is newline-terminated is corruption, not a torn write.
func TestReadJSONLinesRecoveryRules(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	var records chain
	run := id.NewRun()
	var whole []byte
	for i := 1; i <= 3; i++ {
		rec := records.add(t, realm.Clock.Now(), store.Generated, newToken(t, realm, run, i), "")
		line, err := canon.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		whole = append(append(whole, line...), '\n')
	}
	lastLine := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name    string
		data    []byte
		records int
		prefix  int
		torn    bool
	}{
		{"whole", whole, 3, len(whole), false},
		{"partial-final-line", join(whole, []byte(`{"seq":4,"prev":"beef`)), 3, len(whole), true},
		{"unterminated-final-record", whole[:len(whole)-1], 2, lastLine, true},
		{"garbled-line", join(whole[:lastLine], []byte("{not json\n"), whole[lastLine:]), -1, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, tc.data, 0o600); err != nil {
				t.Fatal(err)
			}
			var got []*store.Record
			prefix, torn, err := store.ReadJSONLines(path, func(rec *store.Record, _ int64) error {
				got = append(got, rec)
				return nil
			})
			if tc.records < 0 {
				if err == nil {
					t.Fatal("ReadJSONLines accepted a garbled line")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.records || prefix != int64(tc.prefix) || torn != tc.torn {
				t.Fatalf("got %d records, prefix %d, torn %v; want %d, %d, %v", len(got), prefix, torn, tc.records, tc.prefix, tc.torn)
			}
			if err := store.VerifyRecords(got); err != nil {
				t.Fatal(err)
			}
		})
	}
	if prefix, torn, err := store.ReadJSONLines(filepath.Join(t.TempDir(), "absent"), func(*store.Record, int64) error {
		t.Fatal("record from a missing file")
		return nil
	}); prefix != 0 || torn || err != nil {
		t.Fatalf("missing file = %d, %v, %v; want empty", prefix, torn, err)
	}
}

func TestAppendNilToken(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	if _, err := store.NextRecord(0, sig.Digest{}, realm.Clock.Now(), store.Generated, nil, ""); err == nil {
		t.Fatal("NextRecord(nil token) succeeded")
	}
}

func TestMemStateStore(t *testing.T) {
	t.Parallel()
	s := store.NewMemStateStore()
	testStateStore(t, s)
}

func TestFileStateStore(t *testing.T) {
	t.Parallel()
	s, err := store.NewFileStateStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStateStore(t, s)
}

func testStateStore(t *testing.T, s store.StateStore) {
	t.Helper()
	state := []byte(`{"design":"v1"}`)
	d, err := s.Put(state)
	if err != nil {
		t.Fatal(err)
	}
	if d != sig.Sum(state) {
		t.Fatal("Put returned wrong digest")
	}
	if !s.Has(d) {
		t.Fatal("Has(d) = false after Put")
	}
	got, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(state) {
		t.Fatalf("Get = %q, want %q", got, state)
	}
	if _, err := s.Get(sig.Sum([]byte("missing"))); !errors.Is(err, store.ErrStateNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrStateNotFound", err)
	}
	if s.Has(sig.Sum([]byte("missing"))) {
		t.Fatal("Has(missing) = true")
	}
}

func TestStateStoreContentAddressing(t *testing.T) {
	t.Parallel()
	f := func(a, b []byte) bool {
		s := store.NewMemStateStore()
		da, err := s.Put(a)
		if err != nil {
			return false
		}
		db, err := s.Put(b)
		if err != nil {
			return false
		}
		ga, err := s.Get(da)
		if err != nil || string(ga) != string(a) {
			return false
		}
		gb, err := s.Get(db)
		if err != nil || string(gb) != string(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFileStateStoreDetectsCorruption(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := store.NewFileStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Put([]byte("good state"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, d.String()), []byte("evil state"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); err == nil {
		t.Fatal("Get returned corrupted state")
	}
}
