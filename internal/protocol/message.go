// Package protocol implements the B2BCoordinator service of section 4.1:
// "Each trusted interceptor provides a B2BCoordinator service for the
// exchange of messages with other trusted interceptors... This service is
// the external entry point for execution of non-repudiation protocols."
// Custom protocol handlers register with the coordinator, which maps
// incoming protocol messages to the appropriate handler and provides access
// to local services (credential management, evidence logging, state
// storage) that are not protocol specific.
package protocol

import (
	"context"
	"fmt"
	"sync"

	"nonrep/internal/bounded"
	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/sig"
)

// Message is the B2BProtocolMessage of section 4.1: "an interface to
// information common to non-repudiation protocol messages — request
// (protocol run) identifier, sender, protocol step, signed content,
// payload etc." Protocol-specific bodies travel in Payload as canonical
// bytes; signed evidence travels in Tokens; bulk bytes in Attachment.
type Message struct {
	Protocol string   `json:"protocol"`
	Run      id.Run   `json:"run"`
	Txn      id.Txn   `json:"txn,omitempty"`
	Step     int      `json:"step"`
	Kind     string   `json:"kind"`
	Sender   id.Party `json:"sender"`
	// ReplyAddr is the sender's coordinator address, letting handlers
	// deliver follow-up messages without a directory lookup.
	ReplyAddr string            `json:"reply_addr,omitempty"`
	Tokens    []*evidence.Token `json:"tokens,omitempty"`
	Payload   []byte            `json:"payload,omitempty"`
	// Trace carries the sender's active span reference so one invocation
	// yields a single trace tree across parties. It is stamped only when
	// telemetry is enabled; otherwise the field is omitted and the wire
	// encoding is unchanged.
	Trace *obs.TraceRef `json:"trace,omitempty"`
	// Attachment is one run of bulk bytes that rides beside the canonical
	// body un-encoded: a stream chunk, a run of record frames. The binary
	// encoding carries it raw and decodes it as a sub-slice of the
	// received buffer, so bulk payload is never tokenised or base64'd;
	// the body then holds only the few fields that describe it.
	Attachment []byte `json:"attachment,omitempty"`
}

// Body decodes the canonical payload into v.
func (m *Message) Body(v any) error {
	if err := canon.Unmarshal(m.Payload, v); err != nil {
		return fmt.Errorf("protocol: decode %s/%s payload: %w", m.Protocol, m.Kind, err)
	}
	return nil
}

// AttachmentOr returns the message's attachment, or legacy — the body
// field in which a peer that predates attachments carried the same bytes
// — when there is none.
func (m *Message) AttachmentOr(legacy []byte) []byte {
	if len(m.Attachment) > 0 {
		return m.Attachment
	}
	return legacy
}

// SetBody encodes v as the canonical payload.
func (m *Message) SetBody(v any) error {
	data, err := canon.Marshal(v)
	if err != nil {
		return err
	}
	m.Payload = data
	return nil
}

// Reply builds the response to m: the same protocol and run, the next
// step, body as its payload.
func (m *Message) Reply(kind string, body any) (*Message, error) {
	out := &Message{Protocol: m.Protocol, Run: m.Run, Step: m.Step + 1, Kind: kind}
	if err := out.SetBody(body); err != nil {
		return nil, err
	}
	return out, nil
}

// PayloadDigest returns the digest of the payload bytes.
func (m *Message) PayloadDigest() sig.Digest { return sig.Sum(m.Payload) }

// Token returns the first token of the given kind, or nil.
func (m *Message) Token(kind evidence.Kind) *evidence.Token {
	for _, t := range m.Tokens {
		if t.Kind == kind {
			return t
		}
	}
	return nil
}

// Handler is the B2BProtocolHandler of section 4.1. ProcessRequest
// handles every protocol message: a request's reply goes back to its
// sender, and a one-way delivery's handler answers nil — its sender
// learns only the error.
type Handler interface {
	// Protocol names the protocol this handler executes.
	Protocol() string
	// ProcessRequest handles a protocol message and returns the reply.
	ProcessRequest(ctx context.Context, msg *Message) (*Message, error)
}

// Directory resolves parties to coordinator addresses. It stands in for
// the naming component of the membership service (section 3.5). It is safe
// for concurrent use.
type Directory struct {
	mu    sync.RWMutex
	addrs map[id.Party]string
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{addrs: make(map[id.Party]string)}
}

// Register maps a party to a coordinator address.
func (d *Directory) Register(p id.Party, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs[p] = addr
}

// Unregister withdraws a party's registration, but only while the
// directory still maps the party to addr (an empty addr withdraws
// unconditionally): a tenant that detached and re-enrolled elsewhere must
// not have its successor's registration removed by the late cleanup of
// the old coordinator.
func (d *Directory) Unregister(p id.Party, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.addrs[p]; ok && (addr == "" || cur == addr) {
		delete(d.addrs, p)
	}
}

// Resolve returns the coordinator address of a party.
func (d *Directory) Resolve(p id.Party) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	addr, ok := d.addrs[p]
	if !ok {
		return "", fmt.Errorf("protocol: no coordinator address for %s", p)
	}
	return addr, nil
}

// Parties lists all registered parties.
func (d *Directory) Parties() []id.Party {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]id.Party, 0, len(d.addrs))
	for p := range d.addrs {
		out = append(out, p)
	}
	return out
}

// maxCachedReplies bounds a ReplyCache: beyond it the oldest replies are
// evicted first, and a request retried after its reply was evicted is
// handled again.
const maxCachedReplies = 4096

// ReplyCache remembers the reply produced for each (run, step), giving
// protocol-level at-most-once semantics: a retried request returns the
// original reply instead of re-executing. It keeps the most recent
// maxCachedReplies replies and is safe for concurrent use.
type ReplyCache struct {
	mu sync.Mutex
	t  *bounded.Table[replyKey, *Message]
}

type replyKey struct {
	run  id.Run
	step int
}

// NewReplyCache creates an empty reply cache.
func NewReplyCache() *ReplyCache {
	return &ReplyCache{t: bounded.New[replyKey, *Message](maxCachedReplies, 0, nil)}
}

// Get returns the cached reply for (run, step).
func (c *ReplyCache) Get(run id.Run, step int) (*Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Get(replyKey{run, step})
}

// Put caches the reply for (run, step), evicting the oldest replies
// beyond maxCachedReplies.
func (c *ReplyCache) Put(run id.Run, step int, msg *Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.Put(replyKey{run, step}, msg)
}
