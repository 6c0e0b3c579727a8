package invoke

import (
	"context"
	"fmt"
	"slices"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
)

// The acceptance rule of each protocol message, written once and applied
// by every party that receives it: checkRequest (server, inline relay,
// offline TTP), checkReply (client, relay, TTP), checkReceipt (server,
// relay) and checkDecision (server, client). Every run token after the
// NRO passes Verifier.ExpectBound, its entry of evidence.Bindings, which
// core.Adjudicator judges runs by. Beyond the table the doors check only
// what needs a snapshot: the NRO covers the request snapshot, which
// names the door's protocol, and the NROResp the response that answers
// it.

// checkRequest accepts the step-1 message of run at a door serving d:
// snap is that run's request, naming d as its protocol, and nro its
// client's origin token over it, naming the snapshot's server as its one
// recipient if it names any. The signed protocol is what the server's
// container admits the request by, so it must be the one the run follows;
// a relayed run reaches its server's direct door from the last relay. It
// returns the run's anchors: the NRO and the server the request names.
func checkRequest(v *evidence.Verifier, d *descriptor, run id.Run, snap *evidence.RequestSnapshot, nro *evidence.Token) (*evidence.Anchors, error) {
	if snap.Run != run {
		return nil, fmt.Errorf("%w: snapshot run %s in message for run %s", ErrEvidenceInvalid, snap.Run, run)
	}
	if sd, _ := protocolFor(snap.Protocol); sd != d && !(sd.relayed && d == direct) {
		return nil, fmt.Errorf("%w: request names protocol %q, sent to %s", ErrEvidenceInvalid, snap.Protocol, d.name)
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		return nil, err
	}
	if err := v.Expect(nro, evidence.KindNRO, run, snap.Client, reqDigest); err != nil {
		return nil, invalid(err)
	}
	if len(nro.Recipients) > 0 && !slices.Equal(nro.Recipients, []id.Party{snap.Server}) {
		return nil, fmt.Errorf("%w: request origin names %v, not the request's server", ErrEvidenceInvalid, nro.Recipients)
	}
	return &evidence.Anchors{Run: run, NRO: nro, Server: snap.Server}, nil
}

// checkReply accepts the step-2 reply of the run a anchors, a now holding
// the reply's NRR and NROResp: resp answers the run's request, and each
// token holds its entry, the NROResp over resp. Under d a volunteered NRR
// may be missing, and no NROResp is asked for.
func checkReply(v *evidence.Verifier, a *evidence.Anchors, d *descriptor, resp *evidence.ResponseSnapshot) error {
	if resp.Run != a.Run || resp.RequestDigest != a.NRO.Digest {
		return fmt.Errorf("%w: response does not answer the run's request", ErrEvidenceInvalid)
	}
	if a.NRR != nil || !d.volunteered {
		if err := v.ExpectBound(a.NRR, evidence.KindNRR, a); err != nil {
			return invalid(err)
		}
	}
	if d.receiptless {
		return nil
	}
	if err := v.ExpectBound(a.NROResp, evidence.KindNROResp, a); err != nil {
		return invalid(err)
	}
	if respDigest, err := resp.Digest(); err != nil || a.NROResp.Digest != respDigest {
		return fmt.Errorf("%w: response origin does not cover the response", ErrEvidenceInvalid)
	}
	return nil
}

// checkReceipt accepts msg, the step-3 receipt of the run a anchors: the
// client's NRRResp over its note, consumed or not, on the run's response.
// It returns the note and the token.
func checkReceipt(v *evidence.Verifier, a *evidence.Anchors, msg *protocol.Message) (evidence.ReceiptNote, *evidence.Token, error) {
	var body receiptBody
	if err := msg.Body(&body); err != nil {
		return body.Note, nil, err
	}
	tok := msg.Token(evidence.KindNRRResp)
	if err := v.ExpectBound(tok, evidence.KindNRRResp, a); err != nil {
		return body.Note, nil, invalid(err)
	}
	if d, err := body.Note.Digest(); err != nil || d != tok.Digest {
		return body.Note, nil, fmt.Errorf("%w: receipt does not match response", ErrEvidenceInvalid)
	}
	return body.Note, tok, nil
}

// checkDecision accepts the reply of a.TTP, the offline TTP, to a resolve
// or abort of the run a anchors, and returns whether the run was
// resolved, with the decision's token. A client that never saw the
// response holds no NROResp to rebuild the receipt note from: it checks a
// substitute's kind, run and issuer only.
func checkDecision(v *evidence.Verifier, a *evidence.Anchors, reply *protocol.Message) (bool, *evidence.Token, error) {
	var db decisionBody
	if err := reply.Body(&db); err != nil {
		return false, nil, err
	}
	kind := evidence.KindAbort
	if db.Resolved {
		kind = evidence.KindSubstitute
	}
	tok := reply.Token(kind)
	if db.Resolved && a.NROResp == nil && tok != nil {
		return true, tok, invalid(v.Expect(tok, kind, a.Run, a.TTP, tok.Digest))
	}
	return db.Resolved, tok, invalid(v.ExpectBound(tok, kind, a))
}

// askTTP sends the resolve or abort of the run a anchors, carrying body,
// to the offline TTP a.TTP, accepts its decision by checkDecision and logs
// the decision's token. It reports whether the TTP resolved the run.
func askTTP(ctx context.Context, co *protocol.Coordinator, a *evidence.Anchors, step int, kind string, body any) (bool, error) {
	msg := &protocol.Message{Protocol: ProtocolResolve, Run: a.Run, Step: step, Kind: kind}
	if err := msg.SetBody(body); err != nil {
		return false, err
	}
	reply, err := co.DeliverRequest(ctx, a.TTP, msg)
	if err != nil {
		return false, fmt.Errorf("invoke: ttp %s: %w", kind, err)
	}
	svc := co.Services()
	resolved, tok, err := checkDecision(svc.Verifier, a, reply)
	if err != nil {
		return false, err
	}
	return resolved, svc.LogReceived(tok, "ttp decision")
}

// invalid marks a refused counterparty token as ErrEvidenceInvalid.
func invalid(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrEvidenceInvalid, err)
}
