package store

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// testNoteScope is a follower's scope: a token with two recipients and a
// leader whose digest a note may name.
func testNoteScope() *noteScope {
	return &noteScope{
		tok: &evidence.Token{Run: "run-0123456789abcdef0123456789abcdef", Issuer: "urn:org:b",
			Recipients: []id.Party{"urn:org:a", "urn:org:c"}},
		lead: &evidence.Token{Digest: sig.Sum([]byte("leader"))},
		base: time.Date(2026, 10, 15, 8, 43, 29, 0, time.UTC).UnixNano(),
	}
}

// tree builds a hand-written tree from tags (form, n) and raw bytes.
type tree []byte

func (t tree) tag(form byte, n uint64) tree { return appendTag(t, form, n) }
func (t tree) raw(b ...byte) tree           { return append(t, b...) }
func (t tree) str(s string) tree            { return canon.AppendString(t, s) }

// TestStructuredNoteRefusals: a tree the encoder would never write — too
// deep, rebuilding far more than it holds, referring outside its frame,
// spelling a string JSON would escape or that is not UTF-8 — is malformed
// input, refused with ErrBinary, never a panic or an unbounded note.
func TestStructuredNoteRefusals(t *testing.T) {
	t.Parallel()
	deep := tree(nil)
	for i := 0; i <= maxNoteDepth; i++ {
		deep = deep.tag(nodeArray, 1)
	}
	deep = deep.tag(nodeAtom, 0)
	bomb := tree(nil).tag(nodeArray, 1000)
	for i := 0; i < 1000; i++ {
		bomb = bomb.tag(nodeRef, refLeaderDigest)
	}
	// A 200-byte string repeated through suffix references.
	repeat := tree(nil).tag(nodeArray, 300).tag(nodeString, 200).raw([]byte(strings.Repeat("x", 200))...)
	for i := 0; i < 299; i++ {
		repeat = repeat.tag(nodeSuffix, 3).raw(0) // root 3: the first string after the three parties
	}
	plain := testNoteScope()
	plain.lead = nil
	for name, tc := range map[string]struct {
		tree  tree
		scope *noteScope
	}{
		"nesting past the bound":         {tree: deep},
		"references rebuilding too much": {tree: bomb},
		"suffixes rebuilding too much":   {tree: repeat},
		"leader digest in a plain frame": {tree: tree(nil).tag(nodeRef, refLeaderDigest), scope: plain},
		"reference past the recipients":  {tree: tree(nil).tag(nodeRef, refRecipients+2)},
		"suffix root not yet written":    {tree: tree(nil).tag(nodeArray, 1).tag(nodeSuffix, 3).raw(0)},
		"word past the vocabulary":       {tree: tree(nil).tag(nodeWord, uint64(len(noteKeys)))},
		"key past the vocabulary":        {tree: tree(nil).tag(nodeObject, 1).raw(byte(len(noteKeys)+1)).tag(nodeAtom, 0)},
		"literal that is not UTF-8":      {tree: tree(nil).tag(nodeString, 2).raw(0xc3, 0x28)},
		"literal holding a quote":        {tree: tree(nil).tag(nodeString, 3).raw('a', '"', 'b')},
		"literal holding a backslash":    {tree: tree(nil).tag(nodeString, 2).raw('\\', 'n')},
		"literal holding a control byte": {tree: tree(nil).tag(nodeString, 1).raw('\n')},
		"literal key holding a quote":    {tree: tree(nil).tag(nodeObject, 1).raw(0).str(`a"`).tag(nodeAtom, 0)},
		"suffix that is not UTF-8":       {tree: tree(nil).tag(nodeSuffix, 0).str("\xff")},
		"negative zero":                  {tree: tree(nil).tag(nodeNegInt, 0)},
		"atom past true":                 {tree: tree(nil).tag(nodeAtom, 3)},
		"unassigned form":                {tree: tree(nil).raw(0xC0)},
		"time with a number":             {tree: tree(nil).tag(nodeTime, 1).raw(0)},
		"count past the input":           {tree: tree(nil).tag(nodeObject, 1<<40)},
		"run past the input":             {tree: tree(nil).tag(nodeHex, 32).raw(1, 2, 3)},
		"tag number overflowing":         {tree: tree(nil).raw(nodeUint<<4|15, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		"empty":                          {tree: tree(nil)},
	} {
		scope := tc.scope
		if scope == nil {
			scope = testNoteScope()
		}
		r := canon.NewBinReader(tc.tree)
		if note := decodeNote(&r, scope); !errors.Is(r.Err(), canon.ErrBinary) || note != "" {
			t.Errorf("%s: decoded %d bytes, err %v, want ErrBinary", name, len(note), r.Err())
		}
	}
}

// TestStructuredNoteStaysLiteral: notes the parser lets through but the
// tree would not rebuild byte for byte, or the decoder would refuse, are
// caught by the encoder's own decode and stay text.
func TestStructuredNoteStaysLiteral(t *testing.T) {
	t.Parallel()
	digest := `"` + sig.Sum([]byte("leader")).String() + `"`
	for name, note := range map[string]string{
		"leading zero":           `{"attempt":01}`,
		"negative zero":          `{"attempt":-0}`,
		"integer past 64 bits":   `{"attempt":18446744073709551616}`,
		"nested past the bound":  strings.Repeat("[", maxNoteDepth+1) + strings.Repeat("]", maxNoteDepth+1),
		"past the expansion cap": `[` + strings.Repeat(digest+",", 199) + digest + `]`,
		"invalid UTF-8":          "{\"cause\":\"\xff\"}",
		"trailing bytes":         `{"attempt":1}x`,
		"unclosed":               `{"attempt":1`,
	} {
		if tree := encodeNote(note, testNoteScope()); tree != nil {
			t.Errorf("%s: stored as a %d-byte tree, want text", name, len(tree))
		}
	}
}

// noteValue is a random JSON value of the shapes the product journals:
// objects of vocabulary and other keys, arrays, integers, atoms, and
// strings that take every form — references, words, hex, base64, times,
// suffixes of parties and of earlier strings, text, and text JSON escapes.
type noteValue struct{ v map[string]any }

func (noteValue) Generate(rng *rand.Rand, _ int) reflect.Value {
	scope := testNoteScope()
	var earlier []string
	strs := []func() string{
		func() string { return string(scope.tok.Run) },
		func() string { return string(scope.tok.Recipients[rng.Intn(2)]) },
		func() string { return scope.lead.Digest.String() },
		func() string { return noteKeys[rng.Intn(len(noteKeys))] },
		func() string { return fmt.Sprintf("%x", rng.Uint64()) },
		func() string {
			b := make([]byte, rng.Intn(70))
			rng.Read(b)
			return base64.StdEncoding.EncodeToString(b)
		},
		func() string {
			return time.Unix(0, rng.Int63()).UTC().Format(time.RFC3339Nano)
		},
		func() string {
			return time.Unix(0, rng.Int63()).In(time.FixedZone("", 3600)).Format(time.RFC3339Nano)
		},
		func() string { return string(scope.tok.Issuer) + "/svc-" + fmt.Sprint(rng.Intn(9)) },
		func() string {
			if len(earlier) == 0 {
				return ""
			}
			return earlier[rng.Intn(len(earlier))] + "#k"
		},
		func() string {
			return []string{"Echo", "héllo ✓", "sky blue", "", "a\"b", "c\\d", "line\nbreak"}[rng.Intn(7)]
		},
	}
	var value func(depth int) any
	object := func(depth int) map[string]any {
		m := make(map[string]any)
		for i := rng.Intn(5); i >= 0; i-- {
			key := noteKeys[rng.Intn(len(noteKeys))]
			if rng.Intn(4) == 0 {
				key = fmt.Sprintf("k%d", rng.Intn(99))
			}
			m[key] = value(depth + 1)
		}
		return m
	}
	value = func(depth int) any {
		switch n := rng.Intn(9); {
		case n == 0 && depth < 4:
			return object(depth)
		case n == 1 && depth < 4:
			a := make([]any, rng.Intn(4))
			for i := range a {
				a[i] = value(depth + 1)
			}
			return a
		case n == 2:
			return rng.Int63() - rng.Int63()
		case n == 3:
			return []any{nil, false, true}[rng.Intn(3)]
		default:
			s := strs[rng.Intn(len(strs))]()
			earlier = append(earlier, s)
			return s
		}
	}
	return reflect.ValueOf(noteValue{object(0)})
}

// TestQuickStructuredNoteRoundTrip: for every note the encoder accepts,
// decoding what it wrote rebuilds the note byte for byte; and canonical
// JSON is refused only for what it escapes.
func TestQuickStructuredNoteRoundTrip(t *testing.T) {
	t.Parallel()
	structured := 0
	f := func(v noteValue) bool {
		note, err := canon.Marshal(v.v)
		if err != nil {
			return false
		}
		tree := encodeNote(string(note), testNoteScope())
		if tree == nil {
			return strings.Contains(string(note), `\`)
		}
		structured++
		r := canon.NewBinReader(tree)
		return decodeNote(&r, testNoteScope()) == string(note) && r.Done() == nil && len(tree) <= len(note)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if structured < 100 {
		t.Fatalf("only %d of 500 notes were stored structured", structured)
	}
}

// FuzzStructuredNote feeds arbitrary bytes to the note decoder as the tree
// of a follower frame: it refuses them with ErrBinary or rebuilds valid
// JSON, valid UTF-8, within the expansion cap.
func FuzzStructuredNote(f *testing.F) {
	for _, note := range []string{
		`{"job":"run-0123456789abcdef0123456789abcdef","attempts":1}`,
		`{"run":"run-0123456789abcdef0123456789abcdef","server":"urn:org:b","status":1,"result":[{"kind":"value","name":"result0","value":"AAECAw=="}],"request_digest":"` + sig.Sum([]byte("leader")).String() + `"}`,
		`{"enqueued":"2026-10-15T08:43:29.627198276Z","service":"urn:org:b/echo","k":[null,false,true,-7,18446744073709551615,{},[]]}`,
	} {
		tree := encodeNote(note, testNoteScope())
		if tree == nil {
			f.Fatalf("seed note stays literal: %s", note)
		}
		f.Add(tree)
	}
	f.Add([]byte(tree(nil).tag(nodeArray, 40).tag(nodeRef, refLeaderDigest)))
	f.Add([]byte(tree(nil).tag(nodeObject, 1).raw(0).str("k").tag(nodeSuffix, 3).str("x")))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := canon.NewBinReader(data)
		note := decodeNote(&r, testNoteScope())
		if err := r.Err(); err != nil {
			if !errors.Is(err, canon.ErrBinary) || note != "" {
				t.Fatalf("refusal %v with %d bytes rebuilt", err, len(note))
			}
			return
		}
		if !utf8.ValidString(note) || !json.Valid([]byte(note)) {
			t.Fatalf("rebuilt note is not valid JSON: %q", note)
		}
		if limit := noteExpansion*len(data) + noteExpansionFloor; len(note) > limit {
			t.Fatalf("%d bytes rebuilt from %d, cap %d", len(note), len(data), limit)
		}
	})
}
