// Binary protocol-message encoding — the one encoding of messages
// between coordinators, mirroring the transport layer's binary
// envelopes.
//
// A binary message opens with a magic byte (0xEC) and a format version,
// then varint-framed fields in the canonical JSON field order. The
// payload is carried as a raw byte run, so a protocol body — in
// particular a subscription push's concatenated record frames — travels
// from the socket read to the handler as a borrowed sub-slice of the
// envelope body, never through a base64 detour. Tokens and trace
// references stay canonical JSON inside their byte fields: they are the
// signed forms, and their encoding is what their signatures cover.
//
// A message carrying an Attachment is written as version 0x02: the
// version-0x01 layout followed by the attachment as one more raw byte
// run. A message without one keeps its version-0x01 bytes exactly, so
// only the kinds that moved their bulk onto the attachment are new to an
// older peer.
//
// Every build in the wire support window (README) writes binary
// messages, so the decoder refuses a body that does not open with the
// magic, a JSON one included, before any handler sees it.
package protocol

import (
	"fmt"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
)

// Binary message magic byte and format versions.
const (
	msgMagic = 0xEC
	// msgVersion is the layout without an attachment.
	msgVersion = 0x01
	// msgVersionAttachment is msgVersion's layout plus a trailing
	// attachment run.
	msgVersionAttachment = 0x02
)

// marshalMessage encodes a protocol message in the binary frame format.
// The destination is sized before the first append, so the payload and
// the attachment are each copied exactly once.
func marshalMessage(m *Message) ([]byte, error) {
	// Room for the magic, version, step and token count, and for the
	// length prefix of each of the six strings.
	const fixed = 64
	// What canon.AppendBytes adds to a run: the presence byte and the
	// longest length prefix.
	const runHeader = 11
	size := fixed + len(m.Protocol) + len(m.Run) + len(m.Txn) + len(m.Kind) + len(m.Sender) +
		len(m.ReplyAddr) + len(m.Payload) + len(m.Attachment) + 3*runHeader
	tokens := make([][]byte, len(m.Tokens))
	for i, tok := range m.Tokens {
		blob, err := canon.Marshal(tok)
		if err != nil {
			return nil, err
		}
		tokens[i] = blob
		size += len(blob) + runHeader
	}
	var trace []byte
	if m.Trace != nil {
		var err error
		if trace, err = canon.Marshal(m.Trace); err != nil {
			return nil, err
		}
		size += len(trace)
	}
	version := byte(msgVersion)
	if len(m.Attachment) > 0 {
		version = msgVersionAttachment
	}
	dst := make([]byte, 0, size)
	dst = append(dst, msgMagic, version)
	dst = canon.AppendString(dst, m.Protocol)
	dst = canon.AppendString(dst, string(m.Run))
	dst = canon.AppendString(dst, string(m.Txn))
	dst = canon.AppendVarint(dst, int64(m.Step))
	dst = canon.AppendString(dst, m.Kind)
	dst = canon.AppendString(dst, string(m.Sender))
	dst = canon.AppendString(dst, m.ReplyAddr)
	dst = canon.AppendUvarint(dst, uint64(len(tokens)))
	for _, blob := range tokens {
		dst = canon.AppendBytes(dst, blob)
	}
	dst = canon.AppendBytes(dst, m.Payload)
	dst = canon.AppendBool(dst, m.Trace != nil)
	if m.Trace != nil {
		dst = canon.AppendBytes(dst, trace)
	}
	if version == msgVersionAttachment {
		dst = canon.AppendBytes(dst, m.Attachment)
	}
	return dst, nil
}

// unmarshalMessage decodes a binary protocol message. Its byte fields —
// the payload and the attachment — are sub-slices of data: the caller
// must hand over ownership of the buffer, as it already must for the
// transport envelope the buffer came from.
func unmarshalMessage(data []byte, m *Message) error {
	r := canon.NewBinReader(data)
	if r.Byte() != msgMagic {
		return fmt.Errorf("protocol: %w: not a binary message", canon.ErrBinary)
	}
	version := r.Byte()
	if r.Err() == nil && version != msgVersion && version != msgVersionAttachment {
		return fmt.Errorf("protocol: unknown binary message version 0x%02x", version)
	}
	m.Protocol = r.ValidString()
	m.Run = id.Run(r.ValidString())
	m.Txn = id.Txn(r.ValidString())
	m.Step = r.Int()
	m.Kind = r.ValidString()
	m.Sender = id.Party(r.ValidString())
	m.ReplyAddr = r.ValidString()
	n := int(r.Uvarint())
	const maxTokens = 1 << 16
	if n < 0 || n > maxTokens {
		return r.Fail(fmt.Errorf("protocol: binary message token count %d", n))
	}
	if n > 0 && r.Err() == nil {
		m.Tokens = make([]*evidence.Token, 0, min(n, 64))
		for i := 0; i < n && r.Err() == nil; i++ {
			tok := new(evidence.Token)
			if err := canon.Unmarshal(r.Bytes(), tok); err != nil {
				return r.Fail(err)
			}
			m.Tokens = append(m.Tokens, tok)
		}
	}
	m.Payload = r.Bytes()
	if r.Bool() {
		tr := new(obs.TraceRef)
		if err := canon.Unmarshal(r.Bytes(), tr); err != nil {
			return r.Fail(err)
		}
		m.Trace = tr
	}
	if version == msgVersionAttachment {
		m.Attachment = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("protocol: decode binary message: %w", err)
	}
	return nil
}
