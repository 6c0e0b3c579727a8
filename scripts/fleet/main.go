// Command fleet runs one party of a cross-build wire test. scripts/fleet.sh
// builds it inside each checked-out build and runs the parties as separate
// processes over TCP, so that one build's interceptor exchanges evidence
// with another's. It uses only internal API that every build in the wire
// support window (README) shares, and every key derives from its key id,
// so each process can sign for its own party with nothing but the shared
// certificate bundle.
//
//	fleet certs -certs DIR PARTY...
//	fleet serve -certs DIR -party P -vault DIR
//	fleet call  -certs DIR -party P -vault DIR -server P=ADDR -replica P=ADDR
//
// certs writes the domain's root certificate and one certificate per party
// as an evidence bundle without logs, which ttpd -trust and nrverify
// -bundle read. serve runs a server organisation on an ephemeral port,
// prints "fleet: serving P on ADDR" and serves until SIGTERM: a value
// call is echoed back, and a streamed call's "doc" stream comes back as
// its "echo" result stream. call runs the exchanges a client organisation
// starts and prints each one it ran: a direct call whose 9 MiB value
// travels as transport chunk frames both ways, a streamed call read back
// and receipted, then the tail of its vault pushed to the replica host
// (geo-append) and its sealed segment shipped there (seg-ship).
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nonrep/internal/bundle"
	"nonrep/internal/clock"
	"nonrep/internal/core"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// ca is the fleet domain's root authority.
const ca = id.Party("urn:fleet:ca")

// service is what the client calls.
const service = id.Service("urn:fleet:svc")

// Payload sizes: the value is past the transport's 8 MiB chunking
// threshold, the stream spans three invocation chunks.
const (
	valueBytes  = 9 << 20
	streamBytes = 2*invoke.DefaultStreamChunk + 4321
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleet: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: fleet certs|serve|call [flags]")
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	certs := fs.String("certs", "", "certificate bundle directory")
	party := fs.String("party", "", "party this process acts for")
	vaultDir := fs.String("vault", "", "the party's vault directory")
	server := fs.String("server", "", "server to call, as party=addr")
	replica := fs.String("replica", "", "replica host to ship evidence to, as party=addr")
	_ = fs.Parse(os.Args[2:])
	var err error
	switch os.Args[1] {
	case "certs":
		err = writeCerts(*certs, fs.Args())
	case "serve":
		err = serve(*certs, id.Party(*party), *vaultDir)
	case "call":
		err = call(*certs, id.Party(*party), *vaultDir, *server, *replica)
	default:
		err = fmt.Errorf("unknown command %q", os.Args[1])
	}
	if err != nil {
		log.Fatal(err)
	}
}

// signer is the party's key: derived from its key id, the same in every
// process.
func signer(p id.Party) sig.Signer {
	keyID := string(p) + "#key"
	return sig.NewEd25519FromSeed(keyID, sha256.Sum256([]byte("nonrep fleet "+keyID)))
}

func writeCerts(dir string, parties []string) error {
	root, err := credential.NewRootAuthority(ca, signer(ca), clock.Real{})
	if err != nil {
		return err
	}
	b := &bundle.Bundle{CA: root.Certificate()}
	for _, p := range parties {
		s := signer(id.Party(p))
		cert, err := root.Issue(id.Party(p), s.KeyID(), s.PublicKey())
		if err != nil {
			return err
		}
		b.Certs = append(b.Certs, cert)
	}
	return bundle.Write(dir, b)
}

// org is one party's interceptor: its node over TCP and its vault.
type org struct {
	node  *core.Node
	vault *vault.Vault
}

// start opens the party's vault and starts its node on an ephemeral
// port, trusting the bundle's certificates and resolving peers (given as
// party=addr) through its directory.
func start(certs string, p id.Party, dir string, peers ...string) (*org, error) {
	clk := clock.Real{}
	b, err := bundle.Read(certs)
	if err != nil {
		return nil, err
	}
	creds := credential.NewStore(clk)
	if err := creds.AddRoot(b.CA); err != nil {
		return nil, err
	}
	for _, c := range b.Certs {
		if err := creds.Add(c); err != nil {
			return nil, err
		}
	}
	directory := protocol.NewDirectory()
	for _, peer := range peers {
		if peer == "" {
			continue
		}
		party, addr, ok := strings.Cut(peer, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q is not party=addr", peer)
		}
		directory.Register(id.Party(party), addr)
	}
	v, err := vault.Open(dir, clk)
	if err != nil {
		return nil, err
	}
	node, err := core.NewNode(core.NodeConfig{
		Party: p, Signer: signer(p), Creds: creds, Clock: clk,
		Network: transport.NewTCPNetwork(), Addr: "127.0.0.1:0", Directory: directory, Log: v,
	})
	if err != nil {
		_ = v.Close()
		return nil, err
	}
	return &org{node: node, vault: v}, nil
}

func (o *org) close() error {
	err := o.node.Close()
	if verr := o.vault.Close(); err == nil {
		err = verr
	}
	return err
}

func serve(certs string, p id.Party, dir string) error {
	o, err := start(certs, p, dir)
	if err != nil {
		return err
	}
	srv := invoke.NewServer(o.node.Coordinator(), invoke.StreamExecutorFunc(echo))
	fmt.Printf("fleet: serving %s on %s\n", p, o.node.Coordinator().Addr())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	_ = srv.Close()
	return o.close()
}

// echo answers a value call with its parameters and a streamed call with
// its "doc" stream as the "echo" result stream.
func echo(_ context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *invoke.ResultStreams) ([]evidence.Param, error) {
	doc, ok := streams["doc"]
	if !ok {
		return req.Params, nil
	}
	n, err := io.Copy(results.Writer("echo"), doc)
	if err != nil {
		return nil, err
	}
	p, err := evidence.ValueParam("bytes", n)
	return []evidence.Param{p}, err
}

func call(certs string, p id.Party, dir, server, replica string) error {
	serverParty, _, _ := strings.Cut(server, "=")
	replicaParty, _, _ := strings.Cut(replica, "=")
	o, err := start(certs, p, dir, server, replica)
	if err != nil {
		return err
	}
	defer o.close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := invoke.NewClient(o.node.Coordinator())
	to := id.Party(serverParty)

	value := payload(valueBytes, 1)
	param, err := evidence.ValueParam("blob", value)
	if err != nil {
		return err
	}
	res, err := client.Invoke(ctx, to, invoke.Request{Service: service, Operation: "Echo", Params: []evidence.Param{param}})
	if err != nil {
		return fmt.Errorf("direct call: %w", err)
	}
	var back []byte
	if res.Status != evidence.StatusOK || len(res.Result) != 1 || json.Unmarshal(res.Result[0].Value, &back) != nil || !bytes.Equal(back, value) {
		return fmt.Errorf("direct call: run %s answered %s %q", res.Run, res.Status, res.Err)
	}
	fmt.Printf("fleet: direct call %s -> %s: %d MiB value echoed, run %s, receipt delivered\n", p, to, valueBytes>>20, res.Run)

	doc := payload(streamBytes, 2)
	res, err = client.Invoke(ctx, to, invoke.Request{Service: service, Operation: "Stamp", Streams: []invoke.Stream{invoke.StreamParam("doc", bytes.NewReader(doc))}})
	if err != nil {
		return fmt.Errorf("streamed call: %w", err)
	}
	if res.Status != evidence.StatusOK || res.Stream("echo") == nil {
		return fmt.Errorf("streamed call: run %s answered %s %q", res.Run, res.Status, res.Err)
	}
	if back, err = io.ReadAll(res.Stream("echo")); err != nil || !bytes.Equal(back, doc) {
		return fmt.Errorf("streamed call: run %s echoed %d bytes of %d: %v", res.Run, len(back), len(doc), err)
	}
	fmt.Printf("fleet: streamed call %s -> %s: %d chunks out and back, run %s, receipt delivered\n", p, to, (streamBytes+invoke.DefaultStreamChunk-1)/invoke.DefaultStreamChunk, res.Run)

	if replicaParty == "" {
		return nil
	}
	return replicate(ctx, o, p, id.Party(replicaParty))
}

// replicate pushes the vault's unsealed records to the replica host, then
// seals them and ships the sealed segment, checking after each step that
// the host holds what was sent.
func replicate(ctx context.Context, o *org, p, host id.Party) error {
	co := o.node.Coordinator()
	audit := protocol.NewAuditClient(co)
	geo := protocol.NewGeoClient(co)
	eng := georep.NewEngine(o.vault, string(p), georep.Policy{Mode: georep.ModeAsync}, clock.Real{})
	defer eng.Close()
	eng.AddTarget(string(host), geo.Target(host, audit))
	last := o.vault.Stats().LastSeq
	if err := eng.Flush(ctx); err != nil {
		return fmt.Errorf("geo-append: %w", err)
	}
	if acked, err := geo.AckedSeq(ctx, host, string(p)); err != nil || acked != last {
		return fmt.Errorf("geo-append: %s holds records of %s up to %d of %d: %v", host, p, acked, last, err)
	}
	fmt.Printf("fleet: geo-append %s -> %s: unsealed records 1..%d pushed and held\n", p, host, last)
	if err := o.vault.SealNow(); err != nil {
		return err
	}
	if err := eng.Flush(ctx); err != nil {
		return fmt.Errorf("seg-ship: %w", err)
	}
	sealed := o.vault.Stats().Segments
	if held, err := audit.ReplicaStatus(ctx, host, string(p)); err != nil || held != uint64(sealed) || sealed == 0 {
		return fmt.Errorf("seg-ship: %s holds sealed segments of %s up to %d of %d: %v", host, p, held, sealed, err)
	}
	fmt.Printf("fleet: seg-ship %s -> %s: sealed segments 1..%d shipped and held\n", p, host, sealed)
	return nil
}

// payload is n deterministic bytes.
func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}
