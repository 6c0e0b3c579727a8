package canon

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// hostileStrings are the inputs where JSON string quoting has a rule of
// its own: escapes by name and by code, invalid and truncated UTF-8,
// the two separators encoding/json escapes, the HTML characters it
// leaves alone with HTML escaping off, and multi-byte runes.
var hostileStrings = []string{
	"",
	"plain ascii",
	`quote " and backslash \`,
	"\b\f\n\r\t",
	"\x00\x01\x1f\x7f",
	"<script>&amp;</script>",
	"bad \xff byte",
	"\xfe\xff",
	"truncated \xe2\x82",
	"\xc0\xaf overlong",
	"\xed\xa0\x80 surrogate",
	"line\xe2\x80\xa8para\xe2\x80\xa9sep",
	"four \U0001F600 bytes",
	"été",
	"\U0010FFFF",
	"\xf4\x90\x80\x80 above max",
}

func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	check := func(s string) bool {
		want, err := Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJSONString([]byte("prefix"), s)
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("AppendJSONString(%q) = %s, want %s", s, got[len("prefix"):], want)
			return false
		}
		return true
	}
	for _, s := range hostileStrings {
		check(s)
	}
	// Valid UTF-8 from quick, and raw bytes that are mostly not.
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	raw := func(p []byte) bool { return check(string(p)) }
	if err := quick.Check(raw, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Every single byte and every rune class boundary.
	for c := 0; c < 256; c++ {
		check(string([]byte{'a', byte(c), 'z'}))
	}
	for _, r := range []rune{0x7f, 0x80, 0x7ff, 0x800, 0x2027, 0x2028, 0x2029, 0x202a, 0xfffd, 0xffff, 0x10000} {
		check(string(r))
	}
}

func TestAppendJSONBytesMatchesMarshal(t *testing.T) {
	check := func(p []byte) bool {
		want, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONBytes(nil, p); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONBytes(%x) = %s, want %s", p, got, want)
			return false
		}
		return true
	}
	for n := 0; n < 8; n++ {
		check(bytes.Repeat([]byte{0xfb}, n))
	}
	check(nil)
	check([]byte{})
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendJSONHexMatchesMarshalText(t *testing.T) {
	for _, p := range [][]byte{nil, {}, {0x00, 0xab, 0xff}, bytes.Repeat([]byte{0x5a}, 32)} {
		if got, want := AppendJSONHex(nil, p), `"`+string(hexText(p))+`"`; string(got) != want {
			t.Errorf("AppendJSONHex(%x) = %s, want %s", p, got, want)
		}
	}
}

func hexText(p []byte) []byte {
	out := make([]byte, 0, 2*len(p))
	for _, c := range p {
		out = append(out, lowerHex[c>>4], lowerHex[c&0xF])
	}
	return out
}

// hostileTimes covers the zero time, both sides of the epoch, the ends
// of the four-digit years, sub-second digits, and zones MarshalJSON
// renders, truncates or refuses.
func hostileTimes() []time.Time {
	zones := []*time.Location{
		time.UTC, time.Local,
		time.FixedZone("", 5*3600+30*60), time.FixedZone("", -(9*3600 + 45*60)),
		time.FixedZone("", 23*3600+59*60), time.FixedZone("", -(23*3600 + 59*60)),
		time.FixedZone("", 24*3600), time.FixedZone("", -24*3600), time.FixedZone("", 99*3600),
		time.FixedZone("", 1), time.FixedZone("", -59), time.FixedZone("", 3600+30),
	}
	instants := []time.Time{
		{},
		time.Unix(0, 0),
		time.Unix(-1, 999_999_999),
		time.Date(1969, 12, 31, 23, 59, 59, 1, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 8, 8, 4, 5, 6, 120_000_000, time.UTC),
		time.Date(2262, 4, 11, 23, 47, 16, 854_775_807, time.UTC),
		time.Unix(1<<62, 0),
		time.Unix(-1<<62, 0),
	}
	var out []time.Time
	for _, at := range instants {
		for _, z := range zones {
			out = append(out, at.In(z))
		}
	}
	return out
}

func TestAppendJSONTimeMatchesMarshal(t *testing.T) {
	check := func(at time.Time) {
		want, wantErr := Marshal(at)
		got, err := AppendJSONTime([]byte("x"), at)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Errorf("AppendJSONTime(%v): error %v, but Marshal's is %v", at, err, wantErr)
		case err != nil && string(got) != "x":
			t.Errorf("AppendJSONTime(%v) failed but wrote %q", at, got[1:])
		case err == nil && !bytes.Equal(got[1:], want):
			t.Errorf("AppendJSONTime(%v) = %s, want %s", at, got[1:], want)
		}
	}
	for _, at := range hostileTimes() {
		check(at)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		at := time.Unix(rng.Int63n(1<<40)-1<<39, rng.Int63n(1e9))
		if i%2 == 1 {
			at = at.In(time.FixedZone("", rng.Intn(2*26*3600)-26*3600))
		}
		check(at)
	}
}
