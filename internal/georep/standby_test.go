package georep_test

import (
	"context"
	"testing"
	"time"

	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

const standbyOrg = id.Party("urn:org:standby")

// TestStandbyReplicatesFeed builds the pull-based standby: the standby
// region subscribes to the publisher's evidence feed and lands every
// event in a replica store — tail pushes, seal-driven segment installs,
// and resume-after-restart from the replica's verified position.
func TestStandbyReplicatesFeed(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	realm := testpki.MustRealm(srcOrg, standbyOrg)
	network := transport.NewInprocNetwork()
	dir := protocol.NewDirectory()
	newCo := func(p id.Party, log store.Log) *protocol.Coordinator {
		svc := &protocol.Services{
			Party:     p,
			Issuer:    realm.Party(p).Issuer,
			Verifier:  realm.Verifier(),
			Log:       log,
			States:    store.NewMemStateStore(),
			Clock:     realm.Clock,
			Directory: dir,
		}
		co, err := protocol.New(network, string(p), svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co
	}

	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = v.Close() })
	coPub := newCo(srcOrg, v)
	protocol.NewSubService(coPub, v)
	coSub := newCo(standbyOrg, testpki.Log(t, realm.Clock))
	client := protocol.NewSubClient(coSub)

	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// waitAcked polls until the replica acknowledges seq.
	waitAcked := func(seq uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if got, err := rs.AckedSeq(string(srcOrg)); err == nil && got >= seq {
				return
			}
			if time.Now().After(deadline) {
				got, err := rs.AckedSeq(string(srcOrg))
				t.Fatalf("standby never reached seq %d (at %d, %v)", seq, got, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	cfg, err := georep.StandbyWatch(rs, string(srcOrg))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AfterSeq != 0 || !cfg.Seals || !cfg.Segments {
		t.Fatalf("StandbyWatch over empty replica = %+v", cfg)
	}
	feed, err := client.Subscribe(ctx, srcOrg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb := georep.NewStandby(rs, string(srcOrg), feed)

	// Live traffic: 10 records seal segments and leave a tail. (The
	// subscription itself journals evidence in the publisher's vault, so
	// assertions track the vault's live position, not raw counts.)
	appendRecords(t, realm, v, 10)
	localSeq, _ := v.LastPosition()
	waitAcked(localSeq)
	if sealed, err := rs.LastSealed(string(srcOrg)); err != nil || sealed != uint64(len(v.Manifest())) {
		t.Fatalf("standby LastSealed = %d, %v; want %d (segments installed from the feed)", sealed, err, len(v.Manifest()))
	}
	if err := sb.Close(); err != nil {
		t.Fatalf("standby close: %v", err)
	}

	// Restart: StandbyWatch resumes from the verified position, and only
	// the new records flow.
	cfg, err = georep.StandbyWatch(rs, string(srcOrg))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AfterSeq != localSeq {
		t.Fatalf("resume AfterSeq = %d, want %d", cfg.AfterSeq, localSeq)
	}
	feed, err = client.Subscribe(ctx, srcOrg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb = georep.NewStandby(rs, string(srcOrg), feed)
	defer sb.Close()
	appendRecords(t, realm, v, 3)
	localSeq, _ = v.LastPosition()
	waitAcked(localSeq)

	// The standby replica is adjudicable: it opens as a read-only vault
	// and deep-verifies.
	replica, err := vault.Open(rs.Dir(string(srcOrg)), realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if got := replica.Len(); got != v.Len() {
		t.Fatalf("standby replica Len = %d, want %d", got, v.Len())
	}
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("standby replica DeepVerify: %v", err)
	}
}
