// Benchmarks of the paper's section 6 performance study — one bench (or
// bench family) per figure and per study E1–E12 and E19; README's
// "Tests and benchmarks" table maps every study to the bench or
// BENCHMARK.json metric that carries it. Custom metrics: msgs/op and
// wirebytes/op from the metered transport, evidencebytes/op from
// canonical token encodings.
package nonrep_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/access"
	"nonrep/internal/canon"
	"nonrep/internal/container"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/sharing"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

const (
	benchClient = id.Party("urn:org:client")
	benchServer = id.Party("urn:org:server")
	benchTTPA   = id.Party("urn:ttp:a")
	benchTTPB   = id.Party("urn:ttp:b")
)

func echoExecutor() invoke.Executor {
	return invoke.ExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
		p, err := evidence.ValueParam("echo", req.Operation)
		return []evidence.Param{p}, err
	})
}

func benchRequest(b *testing.B) invoke.Request {
	b.Helper()
	p, err := evidence.ValueParam("order", map[string]any{"model": "roadster", "qty": 1})
	if err != nil {
		b.Fatal(err)
	}
	return invoke.Request{Service: "urn:org:server/orders", Operation: "Place", Params: []evidence.Param{p}}
}

// BenchmarkFig4InvocationPlain is E1's baseline: the same executor without
// any non-repudiation machinery (Figure 4a).
func BenchmarkFig4InvocationPlain(b *testing.B) {
	exec := echoExecutor()
	snap := &evidence.RequestSnapshot{Service: "urn:org:server/orders", Operation: "Place"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Execute(context.Background(), snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4InvocationNR is E1: the full non-repudiable invocation
// (Figure 4b) over the direct protocol.
func BenchmarkFig4InvocationNR(b *testing.B) {
	d := testpki.MustDomain(benchClient, benchServer)
	defer d.Close()
	srv := invoke.NewServer(d.Node(benchServer).Coordinator(), echoExecutor())
	defer srv.Close()
	cli := invoke.NewClient(d.Node(benchClient).Coordinator())
	req := benchRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Invoke(context.Background(), benchServer, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineConcurrent is E12, the hot-path pipeline study:
// throughput of concurrent small-message invocations, comparing the plain
// executor (no non-repudiation) with the non-repudiable path (evidence
// signed one protocol step per signature, verified through the crypto
// fast path) — the latter also with the telemetry plane attached, whose
// acceptance bar is <2% regression versus telemetry off (end to end,
// the benchmark's obs.trace_overhead_pct).
func BenchmarkPipelineConcurrent(b *testing.B) {
	const clients = 32

	b.Run("Plain/32clients", func(b *testing.B) {
		exec := echoExecutor()
		snap := &evidence.RequestSnapshot{Service: "urn:org:server/orders", Operation: "Place"}
		b.ReportAllocs()
		b.ResetTimer()
		concurrently(b, clients, func() error {
			_, err := exec.Execute(context.Background(), snap)
			return err
		})
	})

	for _, cfg := range []struct {
		name string
		opts []testpki.DomainOption
	}{
		{"NR/32clients", []testpki.DomainOption{testpki.WithMetering()}},
		{"NRTelemetry/32clients", []testpki.DomainOption{testpki.WithTelemetry(), testpki.WithMetering()}},
	} {
		name, opts := cfg.name, cfg.opts
		b.Run(name, func(b *testing.B) {
			d := testpki.MustDomainWith([]id.Party{benchClient, benchServer}, opts...)
			defer d.Close()
			srv := invoke.NewServer(d.Node(benchServer).Coordinator(), echoExecutor())
			defer srv.Close()
			cli := invoke.NewClient(d.Node(benchClient).Coordinator())
			req := benchRequest(b)
			d.Meter.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			concurrently(b, clients, func() error {
				_, err := cli.Invoke(context.Background(), benchServer, req)
				return err
			})
			b.StopTimer()
			b.ReportMetric(float64(d.Meter.Messages())/float64(b.N), "msgs/op")
			b.ReportMetric(float64(d.Meter.LogicalMessages())/float64(b.N), "logicalmsgs/op")
			b.ReportMetric(float64(d.Meter.Bytes())/float64(b.N), "wirebytes/op")
		})
	}
}

// BenchmarkFig5SharingUpdate is E2: one agreed update round among three
// organisations (Figure 5b).
func BenchmarkFig5SharingUpdate(b *testing.B) {
	parties := []id.Party{benchClient, benchServer, benchTTPA}
	d := testpki.MustDomain(parties...)
	defer d.Close()
	ctls := make([]*sharing.Controller, len(parties))
	for i, p := range parties {
		ctls[i] = sharing.NewController(d.Node(p).Coordinator())
	}
	for _, ctl := range ctls {
		if err := ctl.Create("doc", []byte("0"), parties); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctls[0].Propose(context.Background(), "doc", []byte(fmt.Sprintf("state-%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreed {
			b.Fatalf("round rejected: %+v", res.Rejections)
		}
	}
}

// BenchmarkFig3TrustDomains is E3: the three trust-domain configurations
// of Figure 3.
func BenchmarkFig3TrustDomains(b *testing.B) {
	cases := []struct {
		name  string
		setup func(d *testpki.Domain) *invoke.Client
	}{
		{"Direct", func(d *testpki.Domain) *invoke.Client {
			return invoke.NewClient(d.Node(benchClient).Coordinator())
		}},
		{"InlineTTP", func(d *testpki.Domain) *invoke.Client {
			invoke.NewRelay(d.Node(benchTTPA).Coordinator(), invoke.RouteToServer())
			return invoke.NewClient(d.Node(benchClient).Coordinator(), invoke.Via(benchTTPA))
		}},
		{"DualTTP", func(d *testpki.Domain) *invoke.Client {
			invoke.NewRelay(d.Node(benchTTPA).Coordinator(), invoke.RouteVia(benchTTPB))
			invoke.NewRelay(d.Node(benchTTPB).Coordinator(), invoke.RouteToServer())
			return invoke.NewClient(d.Node(benchClient).Coordinator(), invoke.Via(benchTTPA))
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			d := testpki.MustDomainWith([]id.Party{benchClient, benchServer, benchTTPA, benchTTPB}, testpki.WithMetering())
			defer d.Close()
			srv := invoke.NewServer(d.Node(benchServer).Coordinator(), echoExecutor())
			defer srv.Close()
			cli := tc.setup(d)
			req := benchRequest(b)
			d.Meter.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Invoke(context.Background(), benchServer, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(d.Meter.Messages())/float64(b.N), "msgs/op")
			b.ReportMetric(float64(d.Meter.Bytes())/float64(b.N), "wirebytes/op")
		})
	}
}

// BenchmarkFig7InterceptorChain is E4: cost of pushing an invocation
// through the container's server-side interceptor chain (Figure 7),
// comparing a bare chain with one carrying the standard container
// services.
func BenchmarkFig7InterceptorChain(b *testing.B) {
	for _, loaded := range []bool{false, true} {
		name := "Bare"
		if loaded {
			name = "WithContainerServices"
		}
		b.Run(name, func(b *testing.B) {
			var opts []container.Option
			comp := &benchComponent{}
			if loaded {
				opts = append(opts, container.WithInterceptors(
					&container.LoggingInterceptor{},
					&container.MetaInterceptor{Entries: map[string]string{"tenant": "ve"}},
					&container.TxInterceptor{Target: comp},
				))
			}
			cont := container.New(access.NewManager(), opts...)
			if err := cont.Deploy(container.Descriptor{
				Service: "urn:org:server/orders",
				Methods: map[string]container.MethodPolicy{"Place": {}},
			}, comp); err != nil {
				b.Fatal(err)
			}
			p, err := evidence.ValueParam("model", "roadster")
			if err != nil {
				b.Fatal(err)
			}
			snap := &evidence.RequestSnapshot{
				Service:   "urn:org:server/orders",
				Operation: "Place",
				Params:    []evidence.Param{p},
				Protocol:  invoke.ProtocolDirect,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cont.Execute(context.Background(), snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchComponent is a minimal transactional component for E4.
type benchComponent struct{ n int }

// Place books an order.
func (c *benchComponent) Place(_ context.Context, model string) (int, error) {
	c.n++
	return c.n, nil
}

// Begin implements container.Transactional.
func (c *benchComponent) Begin() error { return nil }

// Commit implements container.Transactional.
func (c *benchComponent) Commit() error { return nil }

// Rollback implements container.Transactional.
func (c *benchComponent) Rollback() error { return nil }

// BenchmarkSigSchemes is E5: computational cost per signature scheme.
func BenchmarkSigSchemes(b *testing.B) {
	d := sig.Sum([]byte("representative evidence digest"))
	for _, alg := range []sig.Algorithm{sig.AlgEd25519, sig.AlgECDSAP256, sig.AlgRSAPSS2048, sig.AlgForwardSecure} {
		signer, err := sig.Generate(alg, "bench")
		if err != nil {
			b.Fatal(err)
		}
		b.Run("Sign/"+alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := signer.Sign(d); err != nil {
					b.Fatal(err)
				}
			}
		})
		s, err := signer.Sign(d)
		if err != nil {
			b.Fatal(err)
		}
		pub := signer.PublicKey()
		b.Run("Verify/"+alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := pub.Verify(d, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvidenceSpace is E6: bytes of evidence generated per run as a
// function of payload size.
func BenchmarkEvidenceSpace(b *testing.B) {
	realm := testpki.MustRealm(benchClient)
	for _, payload := range []int{64, 1024, 16 * 1024} {
		b.Run(fmt.Sprintf("payload%d", payload), func(b *testing.B) {
			body := make([]byte, payload)
			var tokenBytes int
			for i := 0; i < b.N; i++ {
				tok, err := realm.Party(benchClient).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum(body))
				if err != nil {
					b.Fatal(err)
				}
				raw, err := canon.Marshal(tok)
				if err != nil {
					b.Fatal(err)
				}
				tokenBytes = len(raw)
			}
			b.ReportMetric(float64(4*tokenBytes), "evidencebytes/op")
		})
	}
}

// BenchmarkProtocolMessages is E7: messages and wire bytes per protocol.
func BenchmarkProtocolMessages(b *testing.B) {
	cases := []struct {
		name   string
		server []invoke.ServerOption
		client []invoke.ClientOption
	}{
		{"Voluntary", []invoke.ServerOption{invoke.ForProtocol(invoke.ProtocolVoluntary)},
			[]invoke.ClientOption{invoke.WithProtocol(invoke.ProtocolVoluntary)}},
		{"Direct", nil, nil},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			d := testpki.MustDomainWith([]id.Party{benchClient, benchServer}, testpki.WithMetering())
			defer d.Close()
			srv := invoke.NewServer(d.Node(benchServer).Coordinator(), echoExecutor(), tc.server...)
			defer srv.Close()
			cli := invoke.NewClient(d.Node(benchClient).Coordinator(), tc.client...)
			req := benchRequest(b)
			d.Meter.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Invoke(context.Background(), benchServer, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(d.Meter.Messages())/float64(b.N), "msgs/op")
			b.ReportMetric(float64(d.Meter.Bytes())/float64(b.N), "wirebytes/op")
		})
	}
}

// BenchmarkVoluntaryVsDirect is E8: what the full symmetric exchange costs
// over the asymmetric related-work baseline.
func BenchmarkVoluntaryVsDirect(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "VoluntaryBaseline"
		if full {
			name = "DirectExchange"
		}
		b.Run(name, func(b *testing.B) {
			d := testpki.MustDomain(benchClient, benchServer)
			defer d.Close()
			var srv *invoke.Server
			var cli *invoke.Client
			if full {
				srv = invoke.NewServer(d.Node(benchServer).Coordinator(), echoExecutor())
				cli = invoke.NewClient(d.Node(benchClient).Coordinator())
			} else {
				srv = invoke.NewServer(d.Node(benchServer).Coordinator(), echoExecutor(),
					invoke.ForProtocol(invoke.ProtocolVoluntary))
				cli = invoke.NewClient(d.Node(benchClient).Coordinator(),
					invoke.WithProtocol(invoke.ProtocolVoluntary))
			}
			defer srv.Close()
			req := benchRequest(b)
			b.ResetTimer()
			var tokens int
			for i := 0; i < b.N; i++ {
				res, err := cli.Invoke(context.Background(), benchServer, req)
				if err != nil {
					b.Fatal(err)
				}
				tokens = len(res.Evidence)
			}
			b.ReportMetric(float64(tokens), "clienttokens")
		})
	}
}

// BenchmarkFaultyExchange is E9: TTP resolution of a withheld receipt.
// Each call's receipt timeout elapses on the domain's clock, and the
// server's receipt watch resolves the run.
func BenchmarkFaultyExchange(b *testing.B) {
	const timeout = time.Millisecond
	d := testpki.MustDomain(benchClient, benchServer, benchTTPA)
	defer d.Close()
	srv := invoke.NewServer(d.Node(benchServer).Coordinator(), echoExecutor(),
		invoke.ForProtocol(invoke.ProtocolFair), invoke.WithRecovery(benchTTPA, timeout))
	defer srv.Close()
	invoke.NewResolveService(d.Node(benchTTPA).Coordinator())
	cli := invoke.NewClient(d.Node(benchClient).Coordinator(),
		invoke.WithOfflineTTP(benchTTPA), invoke.WithholdReceipt())
	req := benchRequest(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cli.Invoke(context.Background(), benchServer, req)
		if err != nil {
			b.Fatal(err)
		}
		d.Realm.Clock.Advance(timeout)
		for {
			_, resolved, err := srv.ReceiptState(res.Run)
			if err != nil {
				b.Fatal(err)
			}
			if resolved {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// BenchmarkFaultyExchangeBurst is E9 for a burst: k withheld receipts
// fall due at one clock step, timed from the step until the server
// reports every run resolved.
func BenchmarkFaultyExchangeBurst(b *testing.B) {
	const timeout = time.Hour
	for _, k := range []int{100, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := testpki.MustDomain(benchClient, benchServer, benchTTPA)
			defer d.Close()
			srv := invoke.NewServer(d.Node(benchServer).Coordinator(), echoExecutor(),
				invoke.ForProtocol(invoke.ProtocolFair), invoke.WithRecovery(benchTTPA, timeout))
			defer srv.Close()
			invoke.NewResolveService(d.Node(benchTTPA).Coordinator())
			cli := invoke.NewClient(d.Node(benchClient).Coordinator(),
				invoke.WithOfflineTTP(benchTTPA), invoke.WithholdReceipt())
			req := benchRequest(b)
			runs := make([]id.Run, k)
			// A resolved run is settled, and the settled table keeps the
			// newest few hundred: with every receipt withheld, a run gone
			// from the server was resolved.
			resolved := func(run id.Run) bool {
				_, ok, err := srv.ReceiptState(run)
				if errors.Is(err, invoke.ErrNoSuchRun) {
					return true
				}
				if err != nil {
					b.Fatal(err)
				}
				return ok
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range runs {
					res, err := cli.Invoke(context.Background(), benchServer, req)
					if err != nil {
						b.Fatal(err)
					}
					runs[j] = res.Run
				}
				b.StartTimer()
				d.Realm.Clock.Advance(timeout)
				for _, run := range runs {
					for !resolved(run) {
						time.Sleep(10 * time.Microsecond)
					}
				}
			}
		})
	}
}

// BenchmarkRollup is E10: one coordination event for ten staged operations
// versus ten events.
func BenchmarkRollup(b *testing.B) {
	const ops = 10
	for _, rollup := range []bool{false, true} {
		name := "PerOpRounds"
		if rollup {
			name = "RolledUp"
		}
		b.Run(name, func(b *testing.B) {
			d := testpki.MustDomain(benchClient, benchServer)
			defer d.Close()
			ctlA := sharing.NewController(d.Node(benchClient).Coordinator())
			ctlB := sharing.NewController(d.Node(benchServer).Coordinator())
			group := []id.Party{benchClient, benchServer}
			if err := ctlA.Create("doc", []byte("0"), group); err != nil {
				b.Fatal(err)
			}
			if err := ctlB.Create("doc", []byte("0"), group); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rollup {
					for op := 0; op < ops; op++ {
						if err := ctlA.Stage("doc", []byte(fmt.Sprintf("i%d-op%d", i, op))); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := ctlA.Commit(context.Background(), "doc"); err != nil {
						b.Fatal(err)
					}
				} else {
					for op := 0; op < ops; op++ {
						if _, err := ctlA.Propose(context.Background(), "doc", []byte(fmt.Sprintf("i%d-op%d", i, op))); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkGroupSize is E11: sharing round cost against group size.
func BenchmarkGroupSize(b *testing.B) {
	for _, size := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("members%d", size), func(b *testing.B) {
			parties := make([]id.Party, size)
			for i := range parties {
				parties[i] = id.Party(fmt.Sprintf("urn:org:m%d", i))
			}
			d := testpki.MustDomainWith(parties, testpki.WithMetering())
			defer d.Close()
			ctls := make([]*sharing.Controller, size)
			for i, p := range parties {
				ctls[i] = sharing.NewController(d.Node(p).Coordinator())
			}
			for _, ctl := range ctls {
				if err := ctl.Create("doc", []byte("0"), parties); err != nil {
					b.Fatal(err)
				}
			}
			d.Meter.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ctls[0].Propose(context.Background(), "doc", []byte(fmt.Sprintf("state-%d", i)))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Agreed {
					b.Fatalf("rejected: %+v", res.Rejections)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(d.Meter.Messages())/float64(b.N), "msgs/op")
		})
	}
}

// benchToken issues one representative evidence token to append
// repeatedly; append cost is independent of token identity.
func benchToken(b *testing.B, realm *testpki.Realm, opts ...evidence.IssueOption) *evidence.Token {
	b.Helper()
	tok, err := realm.Party(benchClient).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("vault bench payload")), opts...)
	if err != nil {
		b.Fatal(err)
	}
	return tok
}

// concurrently spreads b.N calls of fn over the given number of
// goroutines; a failing call fails the benchmark and stops its goroutine.
func concurrently(b *testing.B, workers int, fn func() error) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for int(next.Add(1)) <= b.N {
				if err := fn(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkEvidenceDurableAppend is the vault throughput study: durable
// appends from 32 concurrent protocol goroutines, which the vault's group
// commit batches into one write+fsync per group. The paper's trusted
// interceptors must persist all evidence (section 3.5); this is that hot
// path.
func BenchmarkEvidenceDurableAppend(b *testing.B) {
	realm := testpki.MustRealm(benchClient)
	tok := benchToken(b, realm)
	b.Run("VaultGroupCommit/32appenders", func(b *testing.B) {
		v, err := vault.Open(b.TempDir(), realm.Clock)
		if err != nil {
			b.Fatal(err)
		}
		defer v.Close()
		b.ResetTimer()
		concurrently(b, 32, func() error {
			_, err := v.Append(store.Generated, tok, "")
			return err
		})
		b.StopTimer()
	})
}

// BenchmarkEvidenceByTxn is the vault lookup study: ByTxn against log
// size. The vault intersects its persistent posting lists and preads
// exactly the matching records (O(result)), so its lookup time stays flat
// as the log grows 100-fold. The transaction's ten records sit in one
// burst early in the log, as a business transaction's runs do in practice.
func BenchmarkEvidenceByTxn(b *testing.B) {
	realm := testpki.MustRealm(benchClient)
	const txnRecords = 10
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("Vault/size%d", size), func(b *testing.B) {
			v, err := vault.Open(b.TempDir(), realm.Clock, vault.WithoutSync(), vault.WithSegmentRecords(250))
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			txn := id.NewTxn()
			filler := benchToken(b, realm)
			linked := benchToken(b, realm, evidence.WithTxn(txn))
			for i := 0; i < size; i++ {
				tok := filler
				if i < 1000 && i%100 == 0 {
					tok = linked
				}
				if _, err := v.Append(store.Generated, tok, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := len(testpki.Query(b, v, store.Query{Txn: txn})); got != txnRecords {
					b.Fatalf("query by txn = %d records, want %d", got, txnRecords)
				}
			}
		})
	}
}

// BenchmarkDurableCall is E16, the durable-invocation study: one caller
// at a time calls through a client organisation with a durable runtime,
// over fsyncing vaults, either inline (Call) or as a journaled job
// (CallAsync, then Wait). Besides time per call it reports the client
// vault's commits per call (commits/op) and the journaled arm's time as a
// multiple of the inline arm's (x_call); the end-to-end counterpart is
// durable.* on the evidence_plane workload.
func BenchmarkDurableCall(b *testing.B) {
	const svc = nonrep.Service("urn:org:server/echo")
	var callNs float64
	for _, async := range []bool{false, true} {
		name := "Call"
		if async {
			name = "CallAsync"
		}
		b.Run(name, func(b *testing.B) {
			domain, err := nonrep.NewDomain()
			if err != nil {
				b.Fatal(err)
			}
			defer domain.Close()
			client, err := domain.AddOrg("urn:org:client", nonrep.WithVault(b.TempDir()), nonrep.WithDurable())
			if err != nil {
				b.Fatal(err)
			}
			server, err := domain.AddOrg("urn:org:server", nonrep.WithVault(b.TempDir()))
			if err != nil {
				b.Fatal(err)
			}
			desc := nonrep.Descriptor{Service: svc, Methods: map[string]nonrep.MethodPolicy{"Echo": {NonRepudiation: true}}}
			if err := server.Deploy(desc, blobEcho{}); err != nil {
				b.Fatal(err)
			}
			server.Serve()
			proxy := client.Proxy("urn:org:server", svc, nil)
			ctx := context.Background()
			blob := make([]byte, 64)
			call := func() error {
				var res *nonrep.Result
				var err error
				if async {
					job, jerr := proxy.CallAsync(ctx, "Echo", blob)
					if jerr != nil {
						return jerr
					}
					res, err = job.Wait(ctx)
				} else {
					res, err = proxy.Call(ctx, "Echo", blob)
				}
				if err == nil && res.Status != evidence.StatusOK {
					err = fmt.Errorf("status %v: %s", res.Status, res.Err)
				}
				return err
			}
			if err := call(); err != nil { // warm the vaults and coordinators
				b.Fatal(err)
			}
			var commits atomic.Int64
			defer client.Vault().OnCommit(func([]*store.Record) { commits.Add(1) })()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := call(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(commits.Load())/float64(b.N), "commits/op")
			nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if !async {
				callNs = nsOp
			} else if callNs > 0 {
				b.ReportMetric(nsOp/callNs, "x_call")
			}
		})
	}
}

// BenchmarkGeoQuorumCall is E19, the geo-replication durability study: 16
// concurrent callers invoke through a client organisation whose vault is
// durable locally only, trails two peer replica regions asynchronously,
// or returns each append only once a synchronous 2-of-3 quorum holds it.
// The replicated arms report their time per call as a multiple of the
// local arm's (x_local). Both replica regions share this process's cores
// and disk, so read the ratios as colocation bounds; the async arm's
// end-to-end counterpart is georep.* on the evidence_plane workload.
func BenchmarkGeoQuorumCall(b *testing.B) {
	peers := []nonrep.Party{"urn:org:geo-r1", "urn:org:geo-r2"}
	req := nonrep.Request{Service: "urn:org:server/orders", Operation: "Place"}
	var localNs float64
	for _, arm := range []struct {
		name string
		opts []nonrep.OrgOption
	}{
		{"local", nil},
		{"async-2peers", []nonrep.OrgOption{nonrep.WithQuorum(0, peers...)}},
		{"sync-2of3", []nonrep.OrgOption{nonrep.WithQuorum(2, peers...)}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			domain, err := nonrep.NewDomain()
			if err != nil {
				b.Fatal(err)
			}
			defer domain.Close()
			// Every arm enrols the replica regions (idle in the local arm):
			// only the client's durability policy varies.
			for _, p := range peers {
				if _, err := domain.AddOrg(p, nonrep.WithReplicaStore(b.TempDir())); err != nil {
					b.Fatal(err)
				}
			}
			opts := append([]nonrep.OrgOption{nonrep.WithVault(b.TempDir(), nonrep.VaultSegmentRecords(512))}, arm.opts...)
			client, err := domain.AddOrg("urn:org:client", opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close() // before its replica regions go
			server, err := domain.AddOrg("urn:org:server")
			if err != nil {
				b.Fatal(err)
			}
			server.ServeExecutor(echoExec())
			call := func() error {
				_, err := client.Invoke(context.Background(), "urn:org:server", req)
				return err
			}
			if err := call(); err != nil { // warm the vault, coordinators and replica pushes
				b.Fatal(err)
			}
			b.ResetTimer()
			concurrently(b, 16, call)
			b.StopTimer()
			nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if arm.opts == nil {
				localNs = nsOp
			} else if localNs > 0 {
				b.ReportMetric(nsOp/localNs, "x_local")
			}
		})
	}
}
