package nonrep

import (
	"fmt"
	"strings"

	"nonrep/internal/protocol"
)

// Host is a shared multi-tenant coordinator runtime: one endpoint — one
// TCP listener under WithTCP — serving many hosted organisations'
// coordinators. Use it when a domain must carry many (typically small)
// organisations without paying one heavyweight dedicated endpoint each;
// keep dedicated AddOrg endpoints for organisations that need their own
// address, fault-injection boundary or traffic isolation on the wire.
//
// Hosting changes nothing about an organisation's trust: each hosted org
// keeps its own signing key, evidence issuer, verifier, log or vault and
// state store, and its evidence is byte-compatible with a dedicated
// organisation's. On the wire the host shards incoming dispatch by party
// (lock-free on the hot path) with per-tenant replay-dedup windows and
// batch-opening workers, so no tenant can exhaust another's
// exactly-once state. Outbound, every tenant's protocol messages travel
// as separate exchanges on the host's connections, so one tenant's slow
// call never holds up another's.
type Host struct {
	domain *Domain
	inner  *protocol.Host
}

// HostOption configures a multi-tenant host.
type HostOption func(*hostConfig)

type hostConfig struct {
	addr string
}

// HostAddr fixes the host's shared endpoint address (host:port under
// WithTCP). The default is an ephemeral local port under WithTCP and a
// generated name on the in-process transport.
func HostAddr(addr string) HostOption {
	return func(c *hostConfig) { c.addr = addr }
}

// NewHost starts a multi-tenant coordinator host in the domain. Enrol
// organisations behind it with Domain.AddHostedOrg (or Host.AddOrg); mix
// hosted and dedicated organisations freely.
func NewHost(d *Domain, opts ...HostOption) (*Host, error) {
	cfg := hostConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if strings.ContainsRune(cfg.addr, '#') {
		return nil, fmt.Errorf("nonrep: host address %q must not contain '#' (reserved for tenant-qualified addresses)", cfg.addr)
	}
	addr := cfg.addr
	if addr == "" {
		if d.tcp {
			addr = "127.0.0.1:0"
		} else {
			d.mu.Lock()
			d.hostSeq++
			addr = fmt.Sprintf("nonrep-host-%d", d.hostSeq)
			d.mu.Unlock()
		}
	}
	inner, err := protocol.NewHost(d.network, addr)
	if err != nil {
		return nil, err
	}
	h := &Host{domain: d, inner: inner}
	d.mu.Lock()
	d.hosts = append(d.hosts, h)
	d.mu.Unlock()
	return h, nil
}

// AddOrg enrols an organisation hosted behind this host — shorthand for
// Domain.AddHostedOrg.
func (h *Host) AddOrg(p Party, opts ...OrgOption) (*Org, error) {
	return h.domain.AddHostedOrg(h, p, opts...)
}

// Addr returns the host's shared wire address. Hosted organisations
// advertise tenant-qualified addresses derived from it.
func (h *Host) Addr() string { return h.inner.Addr() }

// Parties lists the organisations currently hosted.
func (h *Host) Parties() []Party { return h.inner.Parties() }

// Close detaches every hosted organisation's coordinator and closes the
// shared endpoint. Domain.Close closes remaining hosts automatically.
func (h *Host) Close() error { return h.inner.Close() }
