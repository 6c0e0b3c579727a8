// Direct appenders for canonical JSON. The hot path digests a handful of
// fixed shapes (a log record with its token, a token's and a time-stamp's
// to-be-signed projection, a signature), and each owning package writes
// those shapes field by field with the primitives below instead of going
// through encoding/json's reflection. The primitives render a value
// exactly as Marshal does, so an appender built from them, keeping
// declaration field order and omitempty, emits Marshal's bytes.
package canon

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"time"
	"unicode/utf8"
)

const lowerHex = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries literally when HTML
// escaping is off: everything from 0x20 up except the quote and the
// backslash (so '<', '>', '&' and DEL stay literal).
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// AppendJSONString appends s as a quoted JSON string under encoding/json's
// rules with HTML escaping off: '"' and '\\' backslash-escaped; \b, \f,
// \n, \r and \t by name; other bytes below 0x20 as \u00XX; each invalid
// UTF-8 byte as \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', lowerHex[c>>4], lowerHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', lowerHex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendJSONBytes appends p as encoding/json writes a []byte: standard
// padded base64 in quotes, or null for a nil slice.
func AppendJSONBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	b = append(b, '"')
	b = base64.StdEncoding.AppendEncode(b, p)
	return append(b, '"')
}

// AppendJSONHex appends p as a quoted lowercase hex string, the JSON form
// of a value whose MarshalText is hex (sig.Digest).
func AppendJSONHex(b, p []byte) []byte {
	b = append(b, '"')
	b = hex.AppendEncode(b, p)
	return append(b, '"')
}

// AppendJSONTime appends t as time.Time's MarshalJSON writes it: quoted
// RFC 3339 with nanoseconds in t's own zone (an offset's leftover seconds
// truncated, as MarshalJSON truncates them). Both go through the time
// package's strict RFC 3339 formatter, so a time MarshalJSON refuses — a
// year outside 0–9999, a zone offset of 24 hours or more — is refused
// here with the same error.
func AppendJSONTime(b []byte, t time.Time) ([]byte, error) {
	out, err := t.AppendText(append(b, '"'))
	if err != nil {
		return b, fmt.Errorf("canon: time: %w", err)
	}
	return append(out, '"'), nil
}
