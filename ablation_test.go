// Ablation benchmarks: the cost of each design choice the middleware
// makes, measured by switching it on and off around the same workload.
package nonrep_test

import (
	"context"
	"testing"

	"nonrep"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// BenchmarkAblationSignerAlgorithm runs the full direct exchange with each
// signature scheme, isolating how much of the end-to-end cost the scheme
// choice controls.
func BenchmarkAblationSignerAlgorithm(b *testing.B) {
	for _, alg := range []sig.Algorithm{sig.AlgEd25519, sig.AlgECDSAP256, sig.AlgRSAPSS2048} {
		b.Run(alg.String(), func(b *testing.B) {
			domain, err := nonrep.NewDomain(nonrep.WithAlgorithm(alg))
			if err != nil {
				b.Fatal(err)
			}
			defer domain.Close()
			client, err := domain.AddOrg("urn:org:client")
			if err != nil {
				b.Fatal(err)
			}
			server, err := domain.AddOrg("urn:org:server")
			if err != nil {
				b.Fatal(err)
			}
			server.ServeExecutor(echoExec())
			req := nonrep.Request{Service: "urn:org:server/svc", Operation: "Do"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke(context.Background(), "urn:org:server", req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTimestamping measures the cost of TSA-countersigning
// every token (paper section 3.5) against bare signatures.
func BenchmarkAblationTimestamping(b *testing.B) {
	for _, stamped := range []bool{false, true} {
		name := "NoTimestamps"
		var opts []nonrep.DomainOption
		if stamped {
			name = "TSATimestamps"
			opts = append(opts, nonrep.WithTimestamping())
		}
		b.Run(name, func(b *testing.B) {
			domain, err := nonrep.NewDomain(opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer domain.Close()
			client, err := domain.AddOrg("urn:org:client")
			if err != nil {
				b.Fatal(err)
			}
			server, err := domain.AddOrg("urn:org:server")
			if err != nil {
				b.Fatal(err)
			}
			server.ServeExecutor(echoExec())
			req := nonrep.Request{Service: "urn:org:server/svc", Operation: "Do"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke(context.Background(), "urn:org:server", req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEvidenceLog compares the evidence-persistence options
// one sequential appender sees: in-memory, the vault (one fsync per
// commit), and the vault without fsync.
func BenchmarkAblationEvidenceLog(b *testing.B) {
	realm := testpki.MustRealm("urn:org:a")
	issuer := realm.Party("urn:org:a").Issuer
	mk := func(b *testing.B, kind string) store.Log {
		if kind == "mem" {
			return store.NewMemLog(realm.Clock)
		}
		var opts []vault.Option
		if kind == "vault+WithoutSync" {
			opts = append(opts, vault.WithoutSync())
		}
		v, err := vault.Open(b.TempDir(), realm.Clock, opts...)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	for _, kind := range []string{"mem", "vault", "vault+WithoutSync"} {
		b.Run(kind, func(b *testing.B) {
			log := mk(b, kind)
			defer log.Close()
			tok, err := issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("x")))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := log.Append(store.Generated, tok, "bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTransport compares the in-process transport with real
// TCP loopback for the same full exchange.
func BenchmarkAblationTransport(b *testing.B) {
	for _, tcp := range []bool{false, true} {
		name := "Inproc"
		var opts []nonrep.DomainOption
		if tcp {
			name = "TCPLoopback"
			opts = append(opts, nonrep.WithTCP())
		}
		b.Run(name, func(b *testing.B) {
			domain, err := nonrep.NewDomain(opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer domain.Close()
			client, err := domain.AddOrg("urn:org:client")
			if err != nil {
				b.Fatal(err)
			}
			server, err := domain.AddOrg("urn:org:server")
			if err != nil {
				b.Fatal(err)
			}
			server.ServeExecutor(echoExec())
			req := nonrep.Request{Service: "urn:org:server/svc", Operation: "Do"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke(context.Background(), "urn:org:server", req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVerification isolates the receiver-side cost: token
// verification against the credential store, with chain walking.
func BenchmarkAblationVerification(b *testing.B) {
	realm := testpki.MustRealm("urn:org:a")
	issuer := realm.Party("urn:org:a").Issuer
	verifier := realm.Verifier()
	tok, err := issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("x")))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("FullVerify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := verifier.Verify(tok); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The signature alone, without certificate chain resolution.
	key := realm.Party("urn:org:a").Signer.PublicKey()
	tbs, err := tok.TBSDigest()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SignatureOnly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := key.Verify(tbs, tok.Signature); err != nil {
				b.Fatal(err)
			}
		}
	})
}
