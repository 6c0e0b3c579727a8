package vault_test

import (
	"fmt"
	"slices"
	"testing"

	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// TestVaultCursorQueries: a query from a cursor, with and without a
// limit, returns exactly what a filtered full scan does, wherever the
// cursor stands — at genesis, inside or at the end of a sealed segment,
// inside the unsealed tail, at the head or past it — plain and keyed by
// run.
func TestVaultCursorQueries(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(8), vault.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	runs := []id.Run{id.NewRun(), id.NewRun()}
	for i := 1; i <= 30; i++ { // sealed 1–8, 9–16, 17–24; tail 25–30
		if _, err := v.Append(store.Generated, newToken(t, realm, runs[i%2], i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(v.Manifest()); n != 3 {
		t.Fatalf("%d sealed segments, want 3", n)
	}
	all, err := v.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	seqs := func(recs []*store.Record) []uint64 {
		out := make([]uint64, len(recs))
		for i, r := range recs {
			out[i] = r.Seq
		}
		return out
	}
	for _, run := range []id.Run{"", runs[1]} {
		for _, after := range []uint64{0, 5, 8, 16, 27, 30, 31} {
			for _, limit := range []int{0, 1, 3, 10} {
				q := vault.Query{Run: run, AfterSeq: after, Limit: limit}
				var want []*store.Record
				for _, r := range all {
					if q.Matches(r) && (limit == 0 || len(want) < limit) {
						want = append(want, r)
					}
				}
				t.Run(fmt.Sprintf("run=%t/after=%d/limit=%d", run != "", after, limit), func(t *testing.T) {
					got, err := v.QueryAll(q)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(seqs(got), seqs(want)) {
						t.Fatalf("query returned %v, a filtered scan %v", seqs(got), seqs(want))
					}
					for i := range got {
						if got[i].Hash != want[i].Hash {
							t.Fatalf("record %d differs from the scan's", got[i].Seq)
						}
					}
				})
			}
		}
	}
}
