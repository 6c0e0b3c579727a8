package evidence

import (
	"strings"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

func TestRequestSnapshotDigestSensitivity(t *testing.T) {
	t.Parallel()
	arg, err := ValueParam("qty", 3)
	if err != nil {
		t.Fatal(err)
	}
	base := RequestSnapshot{
		Run:       "run-1",
		Client:    "urn:org:a",
		Service:   "urn:org:b/orders",
		Operation: "Place",
		Params:    []Param{arg},
		Protocol:  "direct",
	}
	d1, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	changed := base
	changed.Operation = "Cancel"
	d2, err := changed.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("digest insensitive to operation")
	}
	again, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != again {
		t.Fatal("digest not deterministic")
	}
}

func TestParamConstructors(t *testing.T) {
	t.Parallel()
	v, err := ValueParam("spec", map[string]int{"doors": 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != ParamValue || string(v.Value) != `{"doors":2}` {
		t.Errorf("ValueParam = %+v", v)
	}
	s := ServiceRefParam("supplier", id.Service("urn:org:b/parts"))
	if s.Kind != ParamServiceRef || s.URI != "urn:org:b/parts" {
		t.Errorf("ServiceRefParam = %+v", s)
	}
	r := SharedRefParam("design", SharedRef{
		Object:      "design-doc",
		Version:     4,
		StateDigest: sig.Sum([]byte("v4")),
		Mechanism:   "urn:org:a/b2b",
	})
	if r.Kind != ParamSharedRef || r.Ref.Version != 4 {
		t.Errorf("SharedRefParam = %+v", r)
	}
}

func TestValueParamUnencodable(t *testing.T) {
	t.Parallel()
	if _, err := ValueParam("bad", make(chan int)); err == nil {
		t.Fatal("ValueParam(chan) succeeded")
	}
}

func TestResponseSnapshotBindsRequest(t *testing.T) {
	t.Parallel()
	reqDigest := sig.Sum([]byte("request"))
	resp := ResponseSnapshot{
		Run:           "run-1",
		Server:        "urn:org:b",
		Status:        StatusOK,
		RequestDigest: reqDigest,
	}
	d1, err := resp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	resp.RequestDigest = sig.Sum([]byte("other request"))
	d2, err := resp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("response digest does not bind request digest")
	}
}

func TestStatusStrings(t *testing.T) {
	t.Parallel()
	for s, want := range map[Status]string{
		StatusOK:          "ok",
		StatusFailed:      "failed",
		StatusTimeout:     "timeout",
		StatusAborted:     "aborted",
		StatusNotExecuted: "not-executed",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if !strings.Contains(Status(99).String(), "99") {
		t.Error("unknown status string")
	}
}

func TestConsumptionStrings(t *testing.T) {
	t.Parallel()
	if Consumed.String() != "consumed" || NotConsumed.String() != "not-consumed" {
		t.Error("consumption strings")
	}
	if !strings.Contains(Consumption(9).String(), "9") {
		t.Error("unknown consumption string")
	}
}

func TestReceiptNoteDigest(t *testing.T) {
	t.Parallel()
	n := ReceiptNote{
		Run:            "run-1",
		Client:         "urn:org:a",
		ResponseDigest: sig.Sum([]byte("resp")),
		Consumption:    Consumed,
	}
	d1, err := n.Digest()
	if err != nil {
		t.Fatal(err)
	}
	n.Consumption = NotConsumed
	d2, err := n.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("receipt digest ignores consumption")
	}
}

// TestReceiptNoteDigestMatchesMarshal: the receipt note's direct appender
// writes canon.Marshal's bytes — the bytes every NRRResp and substitute
// receipt signed — for ordinary notes and for text JSON must escape.
func TestReceiptNoteDigestMatchesMarshal(t *testing.T) {
	t.Parallel()
	d := sig.Sum([]byte("response"))
	for _, note := range []ReceiptNote{
		{Run: "run-00ff", Client: "urn:org:client", ResponseDigest: d, Consumption: Consumed},
		{Run: "run-00ff", Client: "urn:org:client", ResponseDigest: d, Consumption: NotConsumed},
		{},
		{Run: "r\"u\\n\x01 <&>", Client: "urn:\xffclient\t", ResponseDigest: d, Consumption: -7},
	} {
		want, err := canon.Sum256(&note)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := note.Digest(); err != nil || got != want {
			t.Fatalf("%+v: digest %x, err %v, want %x", note, got, err, want)
		}
	}
}
