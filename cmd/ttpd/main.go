// Command ttpd runs a standalone trusted-third-party node over TCP,
// offering the three TTP services of the paper:
//
//   - an inline relay (Figure 3a/3b) that polices and audits exchanges
//     routed through it;
//   - an offline resolve/abort service for the fair invocation protocol;
//   - an Electronic-Postmark service (section 5) for evidence
//     generation, verification, time-stamping and storage.
//
// The daemon self-provisions an identity: it generates a key, self-signs a
// root certificate and prints it as JSON so organisations can install it
// as a trust anchor. Peer organisations' certificates are loaded from an
// evidence-bundle directory (-trust), and their coordinator addresses are
// given with repeated -peer flags.
//
// Usage:
//
//	ttpd -addr 127.0.0.1:9000 -party urn:ttp:main \
//	     [-trust BUNDLE-DIR] [-peer urn:org:a=127.0.0.1:9001]... \
//	     [-gateway 127.0.0.1:9100] [-archive DIR]
//
// With -gateway the daemon additionally runs a worker-gateway host on the
// given address: organisations behind NAT or egress-only network policy
// dial out to it, say a hello signed under a certificate the -trust
// bundle vouches for, and serve their components down that connection
// without running a listener of their own. On SIGTERM the gateway
// drains before the daemon exits.
//
// With -archive the daemon ships sealed evidence segments — its own
// vault's and those of every hosted peer replica — into a filesystem
// object store at the given directory, the archival tier of the
// replicated evidence plane. Archived segments are framed,
// content-verified objects; a source organisation that lost its region
// rebuilds from them with nrverify or RestoreVaultFromArchive.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nonrep/internal/blob"
	"nonrep/internal/bundle"
	"nonrep/internal/clock"
	"nonrep/internal/core"
	"nonrep/internal/credential"
	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/stamp"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/ttp"
	"nonrep/internal/vault"
)

// drainTimeout bounds how long shutdown waits for the worker gateway's
// queued and in-flight work.
const drainTimeout = 10 * time.Second

// peerFlags collects repeated -peer party=addr flags.
type peerFlags map[id.Party]string

func (p peerFlags) String() string { return fmt.Sprintf("%v", map[id.Party]string(p)) }

func (p peerFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("expected party=addr, got %q", v)
	}
	p[id.Party(parts[0])] = parts[1]
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9000", "TCP address to listen on")
	party := flag.String("party", "urn:ttp:main", "party URI of this TTP")
	trust := flag.String("trust", "", "evidence bundle directory providing trusted certificates")
	vaultDir := flag.String("vault", "", "persist evidence in a segmented vault at this directory")
	replicaRoot := flag.String("replicas", "", "accept peers' sealed-segment replicas into this directory (default <vault>/replicas when -vault is set)")
	telemetryAddr := flag.String("telemetry", "", "serve telemetry introspection (/metricsz, /tracez, /healthz) on this address")
	gatewayAddr := flag.String("gateway", "", "run a worker gateway on this TCP address so NATed organisations can enrol as outbound workers")
	archiveDir := flag.String("archive", "", "tier sealed segments (own vault and hosted replicas) into a filesystem object store at this directory")
	peers := peerFlags{}
	flag.Var(peers, "peer", "peer coordinator address as party=addr (repeatable)")
	flag.Parse()

	clk := clock.Real{}
	key, err := sig.GenerateEd25519(*party + "#key")
	if err != nil {
		log.Fatal(err)
	}
	self, err := credential.NewRootAuthority(id.Party(*party), key, clk)
	if err != nil {
		log.Fatal(err)
	}
	creds := credential.NewStore(clk)
	if err := creds.AddRoot(self.Certificate()); err != nil {
		log.Fatal(err)
	}
	if *trust != "" {
		b, err := bundle.Read(*trust)
		if err != nil {
			log.Fatal(err)
		}
		if err := creds.AddRoot(b.CA); err != nil {
			log.Fatal(err)
		}
		for _, cert := range b.Certs {
			if err := creds.Add(cert); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("trusting %d certificates from %s", len(b.Certs)+1, *trust)
	}

	var telemetry *obs.Telemetry
	if *telemetryAddr != "" {
		telemetry = obs.New()
	}

	var evidenceLog store.Log
	var evidenceVault *vault.Vault
	if *vaultDir != "" {
		v, err := vault.Open(*vaultDir, clk, vault.WithObserver(telemetry.Scope(*party)))
		if err != nil {
			log.Fatal(err)
		}
		defer v.Close()
		st := v.Stats()
		log.Printf("vault %s: %d sealed segments, %d records", *vaultDir, st.Segments, st.LastSeq)
		evidenceLog = v
		evidenceVault = v
	}
	if *replicaRoot == "" && *vaultDir != "" {
		*replicaRoot = filepath.Join(*vaultDir, "replicas")
	}

	directory := protocol.NewDirectory()
	for p, a := range peers {
		directory.Register(p, a)
	}
	network := transport.NewTCPNetwork()
	node, err := core.NewNode(core.NodeConfig{
		Party:     id.Party(*party),
		Signer:    key,
		Creds:     creds,
		Clock:     clk,
		Network:   network,
		Addr:      *addr,
		Directory: directory,
		Log:       evidenceLog,
		TSA:       stamp.NewAuthority(id.Party(*party), key, clk),
		Telemetry: telemetry,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	invoke.NewRelay(node.Coordinator(), invoke.RouteToServer())
	invoke.NewResolveService(node.Coordinator())
	ttp.NewEPM(node.Coordinator())
	replicas, auditServices := hostEvidence(node.Coordinator(), evidenceVault, *replicaRoot)

	// And neutral ground for survivability's last line: with -archive the
	// TTP runs the archival tier, shipping sealed segments — its own
	// vault's and every hosted replica's — into a content-verified object
	// store that adjudication and region rebuilds can draw on when both a
	// source and its replicas are gone. The archive is a ship-only target:
	// the TTP's own vault gets a shipping engine (reacts to seals, retries
	// on its own clock); hosted replica directories have no seal hook to
	// react to, so they are caught up on a timer.
	if *archiveDir != "" {
		archStore, err := blob.OpenFS(*archiveDir)
		if err != nil {
			log.Fatal(err)
		}
		arch := georep.NewArchive(archStore)
		if evidenceVault != nil {
			eng := georep.NewEngine(evidenceVault, *party, georep.Policy{}, clk, georep.WithObserver(telemetry.Scope(*party)))
			defer eng.Close()
			eng.AddTarget("archive", arch)
			if telemetry != nil {
				telemetry.SetHealth("replication:"+*party, func() any { return eng.Status() })
			}
		}
		if replicas != nil {
			stopArchive := make(chan struct{})
			defer close(stopArchive)
			go archiveReplicas(arch, replicas, stopArchive)
		}
		auditServices += ", archive tier at " + *archiveDir
	}

	// A TTP machine is also neutral ground for connectivity: with -gateway
	// it runs a worker-gateway host so organisations behind NAT or
	// egress-only policy dial out to it and serve from there, instead of
	// needing a listener of their own.
	gatewayServices := ""
	var gw *protocol.WorkerGateway
	if *gatewayAddr != "" {
		gwHost, err := protocol.NewHost(network, *gatewayAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer gwHost.Close()
		gcfg := protocol.GatewayConfig{Verifier: node.Services().Verifier}
		if telemetry != nil {
			gcfg.Obs = telemetry.Scope(*party)
		}
		gw, err = gwHost.EnableWorkerGateway(gcfg)
		if err != nil {
			log.Fatal(err)
		}
		if telemetry != nil {
			telemetry.SetHealth("worker-gateway:"+gwHost.Addr(), func() any { return gw.Status() })
		}
		gatewayServices = ", worker gateway on " + gwHost.Addr()
	}

	if telemetry != nil {
		if evidenceVault != nil {
			telemetry.SetHealth("vault:"+*party, evidenceVault.Health)
		}
		telemetry.SetHealth("coordinator", func() any {
			return map[string]any{"party": *party, "addr": node.Coordinator().Addr(), "records": node.Log().Len()}
		})
		obsSrv, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer obsSrv.Close()
		fmt.Printf("ttpd: telemetry on http://%s (/metricsz /tracez /healthz)\n", obsSrv.Addr())
	}

	cert, err := json.MarshalIndent(self.Certificate(), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ttpd: %s listening on %s\n", *party, node.Coordinator().Addr())
	fmt.Printf("ttpd: services: inline relay, fair-exchange resolve/abort, electronic postmark%s%s\n", auditServices, gatewayServices)
	fmt.Printf("ttpd: install this root certificate at peer organisations:\n%s\n", cert)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	if gw != nil {
		// Refuse new worker traffic and let what the workers hold finish
		// before the gateway host closes under them.
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := gw.Drain(ctx); err != nil {
			log.Printf("worker gateway: drain: %v", err)
		}
		cancel()
	}
	fmt.Printf("ttpd: shutting down; evidence log holds %d records\n", node.Log().Len())
}

// hostEvidence makes the TTP the neutral ground for evidence
// survivability: with storage configured it serves remote audits of its
// own vault, accepts peers' replicas — sealed segments over seg-ship and
// the unsealed tail over geo pushes, both signed by the source and
// verified against its chain, so an organisation may name the TTP in
// WithReplication or WithQuorum — and serves adjudications from those
// replicas when a source organisation is lost or uncooperative (nrverify
// -remote -source). It returns the replica store (nil without one) and
// what to add to the services line.
func hostEvidence(co *protocol.Coordinator, v *vault.Vault, replicaRoot string) (*vault.ReplicaSet, string) {
	if v == nil && replicaRoot == "" {
		return nil, ""
	}
	var replicas *vault.ReplicaSet
	services := ", remote audit"
	if replicaRoot != "" {
		var err error
		if replicas, err = vault.OpenReplicaSet(replicaRoot); err != nil {
			log.Fatal(err)
		}
		sources, _ := replicas.Sources()
		log.Printf("replica store %s: %d source organisations", replicaRoot, len(sources))
		protocol.NewGeoService(co, replicas)
		services += " + replica host (seg-ship, geo tail pushes)"
	}
	protocol.NewAuditService(co, v, replicas)
	// The TTP's own vault is open to live subscription without a token: a
	// TTP's evidence (postmarks, substitute receipts, abort affidavits) is
	// exactly what monitors and adjudication tooling (nrverify -follow)
	// need to watch as it happens, and a TTP — like the open audit plane
	// above — serves any comer.
	if v != nil {
		protocol.NewSubService(co, v, protocol.WithAnonymousSubscribe())
		services += ", live subscriptions"
	}
	return replicas, services
}

// archiveReplicas keeps the archive caught up with the hosted replica
// directories until stop closes. A failing pass is logged when it first
// appears or changes, and recovery once.
func archiveReplicas(arch *georep.Archive, replicas *vault.ReplicaSet, stop <-chan struct{}) {
	tick := time.NewTicker(15 * time.Second)
	defer tick.Stop()
	lastErr := ""
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := arch.ShipReplicas(ctx, replicas)
		cancel()
		switch {
		case err != nil && err.Error() != lastErr:
			lastErr = err.Error()
			log.Printf("archive: hosted replicas STALLED (will retry): %v", err)
		case err == nil && lastErr != "":
			lastErr = ""
			log.Printf("archive: hosted replicas recovered")
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}
