// Structured notes (segment format 5). The notes the product journals
// beside its tokens — a durable job's spec, attempt and outcome, the
// response snapshot a resumed call keeps, a subscription's authorization —
// are canonical JSON that repeats the record's own run, parties and
// digests and spells bytes as base64, digests as hex and times as RFC 3339
// text. A frame stores such a note as a tagged binary tree instead, from
// which the decoder rebuilds the identical note string: Record.Hash, the
// token's signed digest over the note (sig.Sum of the string) and every
// reader above the store see exactly the bytes that were appended.
//
// A tree is one value. Every value opens with a tag byte: the form in the
// high nibble, a number n in the low one (n ≥ 15 is 15 plus a uvarint that
// follows). Objects and arrays are n members in their original order; an
// object member is a key — one byte, an index plus one into noteKeys, or 0
// and a length-prefixed literal — then a value. Integers are n (negative
// ones the magnitude), null/false/true an atom. A string takes the first of
// these forms that rebuilds it exactly:
//
//	nodeRef     a reference to the frame's token: its run, its issuer, a
//	            recipient, or — in a follower frame — the leader token's
//	            digest as lowercase hex
//	nodeWord    an entry of noteKeys
//	nodeHex     lowercase hex, stored as the bytes it spells
//	nodeBase64  padded standard base64, stored as the bytes it spells
//	nodeTime    an RFC 3339 UTC time, a zig-zag varint of nanoseconds from
//	            the frame's At
//	nodeSuffix  an earlier string of the note, or one of the token's party
//	            URIs, extended by a length-prefixed suffix (possibly empty)
//	nodeString  the string itself, length-prefixed
//
// The encoder parses the note, writes the tree, decodes it and compares the
// result with the note; a note the tree does not rebuild byte for byte —
// whitespace, an escape, a fraction, a leading zero, anything — stays
// literal, so structure costs bytes or nothing, never fidelity. The tree is
// a pure function of the record and its leader, so every holder of the
// same records writes the same bytes. The decoder bounds nesting, caps the
// note a tree may rebuild (references are the only bytes of a note not
// paid for by its encoding), refuses references outside the frame and never
// rebuilds a string that is not valid UTF-8 or would need escaping.
package store

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
)

// noteKeys is the vocabulary of structured notes: the field names of what
// the product journals in notes, and a few of their string values, one
// byte each as keys and a one-byte word as values. It is part of the
// segment format: APPEND ONLY — never reorder, edit or remove an entry. A
// key not listed travels literally.
var noteKeys = [...]string{
	// durable.JobSpec, attempt and outcome records.
	"job", "type", "server", "service", "operation", "params", "txn", "ttp", "request", "nro", "enqueued",
	"attempt", "cause", "attempts", "failure",
	// evidence.Param, SharedRef and StreamRef.
	"kind", "name", "value", "uri", "ref", "stream", "object", "version", "state_digest", "mechanism",
	"size", "chunk_size", "chunks", "root",
	// evidence.RequestSnapshot and ResponseSnapshot.
	"run", "client", "protocol", "status", "result", "error", "request_digest",
	// A subscription's sub-open request.
	"subscriber", "sub_id", "addr", "after_seq", "after_hash", "seals", "segments",
	// evidence.Token, sig.Signature and stamp.Token (an abort job's NRO).
	"step", "issuer", "recipients", "digest", "issued_at", "nonce", "signature", "alg", "kid", "sig",
	"period", "pub", "path", "batch_root", "batch_path", "batch_index", "timestamp", "time", "tsa", "serial",
	// String values.
	"call", "abort", "service-ref", "shared-ref", "invoke-direct", "invoke-fair", "nro-req",
}

// A key is one byte, 0 for a literal: the vocabulary must stay under 256
// entries (this fails to compile otherwise).
var _ [255 - len(noteKeys)]struct{}

// noteKeyCodes inverts noteKeys: a word's index plus one.
var noteKeyCodes = func() map[string]int {
	m := make(map[string]int, len(noteKeys))
	for i, k := range noteKeys {
		m[k] = i + 1
	}
	return m
}()

// Value forms: the high nibble of a tag byte.
const (
	nodeObject = iota
	nodeArray
	nodeRef
	nodeWord
	nodeHex
	nodeBase64
	nodeTime
	nodeSuffix
	nodeString
	nodeUint
	nodeNegInt
	nodeAtom
)

// References of nodeRef: the leader's digest, the token's run, its issuer,
// then its recipients in order.
const (
	refLeaderDigest = iota
	refRun
	refIssuer
	refRecipients
)

// atoms are the values of nodeAtom, by n.
var atoms = [...]string{"null", "false", "true"}

const (
	// maxNoteDepth bounds the nesting of a structured note.
	maxNoteDepth = 32
	// A tree rebuilds at most noteExpansion bytes per byte of its own plus
	// noteExpansionFloor — enough for a short note of references to
	// 64-character digests, and the same rule for writer and reader.
	noteExpansion      = 32
	noteExpansionFloor = 256
)

// noteScope is what a structured note may refer to: the frame's token, the
// token of its leader (nil in a plain frame) and the time its times are
// relative to.
type noteScope struct {
	tok, lead *evidence.Token
	base      int64
	leadHex   string // lead's digest in hex, once asked for
}

// ref resolves reference n.
func (s *noteScope) ref(n uint64) (string, bool) {
	switch {
	case n == refLeaderDigest:
		if s.lead == nil {
			return "", false
		}
		if s.leadHex == "" {
			s.leadHex = s.lead.Digest.String()
		}
		return s.leadHex, true
	case n == refRun:
		return string(s.tok.Run), true
	case n == refIssuer:
		return string(s.tok.Issuer), true
	case n-refRecipients < uint64(len(s.tok.Recipients)):
		return string(s.tok.Recipients[n-refRecipients]), true
	default:
		return "", false
	}
}

// parties counts the token's party URIs, the first suffix roots.
func (s *noteScope) parties() int { return 1 + len(s.tok.Recipients) }

func (s *noteScope) party(i int) string {
	if i == 0 {
		return string(s.tok.Issuer)
	}
	return string(s.tok.Recipients[i-1])
}

// appendTag appends a value's tag byte and the rest of n.
func appendTag(dst []byte, form byte, n uint64) []byte {
	if n < 15 {
		return append(dst, form<<4|byte(n))
	}
	return canon.AppendUvarint(append(dst, form<<4|15), n-15)
}

// encodeNote returns the structured tree of note when it is a JSON object
// or array the tree rebuilds exactly, and nil otherwise.
func encodeNote(note string, scope *noteScope) []byte {
	if note == "" || note[0] != '{' && note[0] != '[' {
		return nil
	}
	w := noteWriter{note: note, scope: scope}
	if !w.value(0) || w.i != len(note) {
		return nil
	}
	r := canon.NewBinReader(w.buf)
	if decodeNote(&r, scope) != note || r.Done() != nil {
		return nil
	}
	return w.buf
}

// noteWriter parses a note and writes its tree in one pass.
type noteWriter struct {
	note  string
	i     int
	scope *noteScope
	strs  []string // the string values written so far: suffix roots
	buf   []byte
}

// eat consumes c if it is next.
func (w *noteWriter) eat(c byte) bool {
	if w.i < len(w.note) && w.note[w.i] == c {
		w.i++
		return true
	}
	return false
}

// value writes the JSON value at w.i. Only what the rebuild spells the same
// way is accepted at all: no whitespace, no escapes, no fractions.
func (w *noteWriter) value(depth int) bool {
	if w.i >= len(w.note) {
		return false
	}
	switch c := w.note[w.i]; c {
	case '{', '[':
		if depth >= maxNoteDepth {
			return false
		}
		w.i++
		form, end := byte(nodeObject), byte('}')
		if c == '[' {
			form, end = nodeArray, ']'
		}
		start, n := len(w.buf), uint64(0)
		for ; !w.eat(end); n++ {
			if n > 0 && !w.eat(',') {
				return false
			}
			if form == nodeObject {
				key, ok := w.str()
				if !ok || !w.eat(':') {
					return false
				}
				w.key(key)
			}
			if !w.value(depth + 1) {
				return false
			}
		}
		// The count leads the members but is known only after them.
		w.buf = slices.Insert(w.buf, start, appendTag(nil, form, n)...)
		return true
	case '"':
		s, ok := w.str()
		if ok {
			w.string(s)
			w.strs = append(w.strs, s)
		}
		return ok
	case 'n', 'f', 't':
		for i, a := range atoms {
			if strings.HasPrefix(w.note[w.i:], a) {
				w.i += len(a)
				w.buf = appendTag(w.buf, nodeAtom, uint64(i))
				return true
			}
		}
		return false
	default:
		form := byte(nodeUint)
		if w.eat('-') {
			form = nodeNegInt
		}
		start := w.i
		for w.i < len(w.note) && '0' <= w.note[w.i] && w.note[w.i] <= '9' {
			w.i++
		}
		v, err := strconv.ParseUint(w.note[start:w.i], 10, 64)
		w.buf = appendTag(w.buf, form, v)
		return err == nil
	}
}

// str consumes a JSON string without escapes and returns its content.
func (w *noteWriter) str() (string, bool) {
	if !w.eat('"') {
		return "", false
	}
	start := w.i
	for ; w.i < len(w.note); w.i++ {
		switch c := w.note[w.i]; {
		case c == '"':
			w.i++
			return w.note[start : w.i-1], true
		case c == '\\' || c < 0x20:
			return "", false
		}
	}
	return "", false
}

func (w *noteWriter) key(k string) {
	if code := noteKeyCodes[k]; code != 0 {
		w.buf = append(w.buf, byte(code))
		return
	}
	w.buf = canon.AppendString(append(w.buf, 0), k)
}

// string writes s in the first form that rebuilds it.
func (w *noteWriter) string(s string) {
	for n := uint64(0); n < refRecipients+uint64(len(w.scope.tok.Recipients)); n++ {
		if r, ok := w.scope.ref(n); ok && r == s {
			w.buf = appendTag(w.buf, nodeRef, n)
			return
		}
	}
	if code := noteKeyCodes[s]; code != 0 {
		w.buf = appendTag(w.buf, nodeWord, uint64(code-1))
		return
	}
	if raw, err := hex.DecodeString(s); err == nil && s != "" && hex.EncodeToString(raw) == s {
		w.buf = append(appendTag(w.buf, nodeHex, uint64(len(raw))), raw...)
		return
	}
	if raw, err := base64.StdEncoding.DecodeString(s); err == nil && s != "" && base64.StdEncoding.EncodeToString(raw) == s {
		w.buf = append(appendTag(w.buf, nodeBase64, uint64(len(raw))), raw...)
		return
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil && canon.ModeOfTime(t) == canon.TimeUTC && t.UTC().Format(time.RFC3339Nano) == s {
		w.buf = canon.AppendVarint(appendTag(w.buf, nodeTime, 0), t.UnixNano()-w.scope.base)
		return
	}
	root, best := 0, -1
	for i := 0; i < w.scope.parties()+len(w.strs); i++ {
		r := w.root(i)
		if r != "" && len(r) > best && strings.HasPrefix(s, r) {
			root, best = i, len(r)
		}
	}
	if best > 0 {
		w.buf = canon.AppendString(appendTag(w.buf, nodeSuffix, uint64(root)), s[best:])
		return
	}
	w.buf = append(appendTag(w.buf, nodeString, uint64(len(s))), s...)
}

// root is suffix root i: a party URI of the token, then each string value
// in the order written.
func (w *noteWriter) root(i int) string {
	if p := w.scope.parties(); i >= p {
		return w.strs[i-p]
	}
	return w.scope.party(i)
}

// decodeNote rebuilds the note whose tree is the rest of r; on malformed
// input it fails r and returns "".
func decodeNote(r *canon.BinReader, scope *noteScope) string {
	d := noteReader{r: r, scope: scope, limit: noteExpansion*r.Len() + noteExpansionFloor}
	d.value(0)
	if r.Err() != nil {
		return ""
	}
	return string(d.out)
}

// noteReader rebuilds a note from its tree.
type noteReader struct {
	r     *canon.BinReader
	scope *noteScope
	out   []byte
	strs  [][2]int // where out holds each string value rebuilt so far
	limit int
}

func (d *noteReader) fail(format string, args ...any) {
	d.r.Fail(fmt.Errorf("%w: structured note: %s", canon.ErrBinary, fmt.Sprintf(format, args...)))
}

func (d *noteReader) tag() (form byte, n uint64) {
	b := d.r.Byte()
	form, n = b>>4, uint64(b&15)
	if n == 15 {
		if n += d.r.Uvarint(); n < 15 {
			d.fail("tag number overflows")
		}
	}
	return form, n
}

// raw returns the next n bytes.
func (d *noteReader) raw(n uint64) []byte {
	if n > uint64(d.r.Len()) {
		d.fail("%d bytes claimed, %d left", n, d.r.Len())
		return nil
	}
	return d.r.Raw(int(n))
}

func (d *noteReader) value(depth int) {
	form, n := d.tag()
	if d.r.Err() != nil {
		return
	}
	switch form {
	case nodeObject, nodeArray:
		// Every member takes at least a byte.
		if depth >= maxNoteDepth || n > uint64(d.r.Len()) {
			d.fail("container of %d at depth %d", n, depth)
			return
		}
		open, end := byte('{'), byte('}')
		if form == nodeArray {
			open, end = '[', ']'
		}
		d.out = append(d.out, open)
		for i := uint64(0); i < n && d.r.Err() == nil; i++ {
			if i > 0 {
				d.out = append(d.out, ',')
			}
			if form == nodeObject {
				d.key()
			}
			d.value(depth + 1)
		}
		d.out = append(d.out, end)
	case nodeUint:
		d.out = strconv.AppendUint(d.out, n, 10)
	case nodeNegInt:
		if n == 0 {
			d.fail("negative zero")
		}
		d.out = strconv.AppendUint(append(d.out, '-'), n, 10)
	case nodeAtom:
		if n >= uint64(len(atoms)) {
			d.fail("atom %d", n)
			return
		}
		d.out = append(d.out, atoms[n]...)
	default:
		d.string(form, n)
	}
	if len(d.out) > d.limit {
		d.fail("rebuilds more than %d bytes", d.limit)
	}
}

func (d *noteReader) key() {
	d.out = append(d.out, '"')
	start := len(d.out)
	switch k := int(d.r.Byte()); {
	case k == 0:
		d.out = append(d.out, d.raw(d.r.Uvarint())...)
	case k <= len(noteKeys):
		d.out = append(d.out, noteKeys[k-1]...)
	default:
		d.fail("key %d", k)
	}
	d.checkString(start)
	d.out = append(d.out, '"', ':')
}

func (d *noteReader) string(form byte, n uint64) {
	d.out = append(d.out, '"')
	start := len(d.out)
	switch form {
	case nodeRef:
		s, ok := d.scope.ref(n)
		if !ok {
			d.fail("reference %d", n)
		}
		d.out = append(d.out, s...)
	case nodeWord:
		if n >= uint64(len(noteKeys)) {
			d.fail("word %d", n)
			return
		}
		d.out = append(d.out, noteKeys[n]...)
	case nodeHex:
		d.out = hex.AppendEncode(d.out, d.raw(n))
	case nodeBase64:
		d.out = base64.StdEncoding.AppendEncode(d.out, d.raw(n))
	case nodeTime:
		if n != 0 {
			d.fail("time tag %d", n)
		}
		d.out = time.Unix(0, d.scope.base+d.r.Varint()).UTC().AppendFormat(d.out, time.RFC3339Nano)
	case nodeSuffix:
		p := uint64(d.scope.parties())
		switch {
		case n < p:
			d.out = append(d.out, d.scope.party(int(n))...)
		case n-p < uint64(len(d.strs)):
			s := d.strs[n-p]
			d.out = append(d.out, d.out[s[0]:s[1]]...)
		default:
			d.fail("suffix root %d", n)
		}
		d.out = append(d.out, d.raw(d.r.Uvarint())...)
	case nodeString:
		d.out = append(d.out, d.raw(n)...)
	default:
		d.fail("form %d", form)
	}
	d.checkString(start)
	d.strs = append(d.strs, [2]int{start, len(d.out)})
	d.out = append(d.out, '"')
}

// checkString refuses a rebuilt string, out[start:], that is not valid
// UTF-8 or that JSON would have to escape: no encoder writes one.
func (d *noteReader) checkString(start int) {
	s := d.out[start:]
	if !utf8.Valid(s) || slices.ContainsFunc(s, func(c byte) bool { return c == '"' || c == '\\' || c < 0x20 }) {
		d.fail("string not representable")
	}
}
