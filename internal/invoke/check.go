package invoke

import (
	"fmt"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
)

// The acceptance rule of each protocol message, written once and applied
// by every party that receives the message: the server, an inline relay
// and the offline TTP accept a request by checkRequest; the client, a
// relay and the TTP a reply by checkReply; the server and a relay a
// receipt by checkReceipt; the server and the client the TTP's decision
// by checkDecision. Each token passes Verifier.Expect over the
// digest the protocol binds it to, the bindings core.Adjudicator judges a
// run by: every door applies the adjudicator's rule.

// checkRequest accepts the step-1 message of run: snap is that run's
// request and nro its client's origin token over it. It returns the
// request digest.
func checkRequest(v *evidence.Verifier, run id.Run, snap *evidence.RequestSnapshot, nro *evidence.Token) (sig.Digest, error) {
	if snap.Run != run {
		return sig.Digest{}, fmt.Errorf("%w: snapshot run %s in message for run %s", ErrEvidenceInvalid, snap.Run, run)
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		return sig.Digest{}, err
	}
	return reqDigest, invalid(v.Expect(nro, evidence.KindNRO, run, snap.Client, reqDigest))
}

// checkReply accepts the step-2 reply of run: resp answers the request
// reqDigest, server's NRR covers that request and its NROResp covers
// resp. It returns the response digest.
func checkReply(v *evidence.Verifier, run id.Run, server id.Party, reqDigest sig.Digest, resp *evidence.ResponseSnapshot, nrr, nroResp *evidence.Token) (sig.Digest, error) {
	respDigest, err := answers(resp, run, reqDigest)
	if err != nil {
		return sig.Digest{}, err
	}
	if err := v.Expect(nrr, evidence.KindNRR, run, server, reqDigest); err != nil {
		return sig.Digest{}, invalid(err)
	}
	return respDigest, invalid(v.Expect(nroResp, evidence.KindNROResp, run, server, respDigest))
}

// answers checks that resp answers the request reqDigest of run and
// returns the response digest.
func answers(resp *evidence.ResponseSnapshot, run id.Run, reqDigest sig.Digest) (sig.Digest, error) {
	if resp.Run != run {
		return sig.Digest{}, fmt.Errorf("%w: response for run %s, want %s", ErrEvidenceInvalid, resp.Run, run)
	}
	if resp.RequestDigest != reqDigest {
		return sig.Digest{}, fmt.Errorf("%w: response bound to a different request", ErrEvidenceInvalid)
	}
	return resp.Digest()
}

// checkReceipt accepts the step-3 receipt of run: the note is client's
// report, consumed or not, on the response respDigest, and tok is client's
// NRRResp over the note.
func checkReceipt(v *evidence.Verifier, run id.Run, client id.Party, respDigest sig.Digest, note *evidence.ReceiptNote, tok *evidence.Token) error {
	want := evidence.ReceiptNote{Run: run, Client: client, ResponseDigest: respDigest, Consumption: note.Consumption}
	if *note != want || (note.Consumption != evidence.Consumed && note.Consumption != evidence.NotConsumed) {
		return fmt.Errorf("%w: receipt does not match response", ErrEvidenceInvalid)
	}
	noteDigest, err := note.Digest()
	if err != nil {
		return err
	}
	return invalid(v.Expect(tok, evidence.KindNRRResp, run, client, noteDigest))
}

// checkDecision accepts the offline TTP's reply to a resolve or abort of
// run and returns whether the run was resolved, with the decision's
// token. An abort must be ttp's abort affidavit over the request
// reqDigest. A resolution must be ttp's substitute receipt over receipt,
// the consumed ReceiptNote of the run's client on its response. A client
// that never saw the response cannot rebuild that note and passes nil:
// it then checks the substitute's kind, run and issuer only.
func checkDecision(v *evidence.Verifier, run id.Run, ttp id.Party, reqDigest sig.Digest, receipt *evidence.ReceiptNote, reply *protocol.Message) (bool, *evidence.Token, error) {
	var db decisionBody
	if err := reply.Body(&db); err != nil {
		return false, nil, err
	}
	if !db.Resolved {
		tok := reply.Token(evidence.KindAbort)
		return false, tok, invalid(v.Expect(tok, evidence.KindAbort, run, ttp, reqDigest))
	}
	tok := reply.Token(evidence.KindSubstitute)
	var digest sig.Digest
	switch {
	case receipt != nil:
		d, err := receipt.Digest()
		if err != nil {
			return true, nil, err
		}
		digest = d
	case tok != nil:
		digest = tok.Digest
	}
	return true, tok, invalid(v.Expect(tok, evidence.KindSubstitute, run, ttp, digest))
}

// invalid marks a refused counterparty token as ErrEvidenceInvalid.
func invalid(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrEvidenceInvalid, err)
}
