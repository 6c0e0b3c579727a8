package invoke

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nonrep/internal/evidence"
)

// TestResultStreamRefDigestsAsWritten: the ref a result stream finalises
// to — its chunks digested as they fill, the tail at the end — equals a
// one-pass digest of the bytes written, for chunk-aligned, ragged and
// empty streams, whatever the sizes of the writes.
func TestResultStreamRefDigestsAsWritten(t *testing.T) {
	t.Parallel()
	const cs = 16
	for _, n := range []int{0, 5, cs, 3 * cs, 3*cs + 5} {
		for _, piece := range []int{1, 7, cs, 2*cs + 3} {
			t.Run(fmt.Sprintf("%dB/writes-of-%d", n, piece), func(t *testing.T) {
				data := bytes.Repeat([]byte("0123456789abcdef"), 4)[:n]
				rs := NewResultStreams(cs)
				w := rs.Writer("out")
				for rest := data; len(rest) > 0; {
					k := min(piece, len(rest))
					if _, err := w.Write(rest[:k]); err != nil {
						t.Fatal(err)
					}
					rest = rest[k:]
				}
				params, err := rs.params()
				if err != nil {
					t.Fatal(err)
				}
				got := params[0].Stream

				d := evidence.NewStreamDigester(cs)
				for rest := data; len(rest) > 0; {
					k := min(cs, len(rest))
					if err := d.Add(rest[:k]); err != nil {
						t.Fatal(err)
					}
					rest = rest[k:]
				}
				want, err := d.Ref("")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*got, want) {
					t.Fatalf("ref = %+v, want the one-pass digest %+v", got, want)
				}
				if chunks := rs.chunkMap()["out"]; !bytes.Equal(bytes.Join(chunks, nil), data) {
					t.Fatalf("served chunks hold %d bytes, want the %d written", len(bytes.Join(chunks, nil)), n)
				}
			})
		}
	}
}
