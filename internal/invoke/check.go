package invoke

import (
	"fmt"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// The acceptance rule of each protocol message, written once and applied
// by every party that receives the message: the server, an inline relay
// and the offline TTP accept a request by checkRequest; the client, a
// relay and the TTP a reply by checkReply; the server and a relay a
// receipt by checkReceipt. Evidence is non-repudiable when an adjudicator
// would accept it, so every door applies the adjudicator's rule.

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
	return reqDigest, expect(v, nro, evidence.KindNRO, run, snap.Client, reqDigest)
}

// checkReply accepts the step-2 reply of run: resp answers the request
// reqDigest, server's NRR covers that request and its NROResp covers
// resp. It returns the response digest.
func checkReply(v *evidence.Verifier, run id.Run, server id.Party, reqDigest sig.Digest, resp *evidence.ResponseSnapshot, nrr, nroResp *evidence.Token) (sig.Digest, error) {
	respDigest, err := answers(resp, run, reqDigest)
	if err != nil {
		return sig.Digest{}, err
	}
	if err := expect(v, nrr, evidence.KindNRR, run, server, reqDigest); err != nil {
		return sig.Digest{}, err
	}
	return respDigest, expect(v, nroResp, evidence.KindNROResp, run, server, respDigest)
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

// checkReceipt accepts the step-3 receipt of run: the note acknowledges
// the response respDigest, and tok is client's NRRResp over the note.
func checkReceipt(v *evidence.Verifier, run id.Run, client id.Party, respDigest sig.Digest, note *evidence.ReceiptNote, tok *evidence.Token) error {
	if note.Run != run || note.ResponseDigest != respDigest {
		return fmt.Errorf("%w: receipt does not match response", ErrEvidenceInvalid)
	}
	noteDigest, err := note.Digest()
	if err != nil {
		return err
	}
	return expect(v, tok, evidence.KindNRRResp, run, client, noteDigest)
}

// expect verifies tok as issuer's token of the given kind for run, over
// digest.
func expect(v *evidence.Verifier, tok *evidence.Token, kind evidence.Kind, run id.Run, issuer id.Party, digest sig.Digest) error {
	if tok == nil {
		return fmt.Errorf("%w: missing %s token", ErrEvidenceInvalid, kind)
	}
	if err := v.Expect(tok, kind, run, issuer); err != nil {
		return fmt.Errorf("%w: %v", ErrEvidenceInvalid, err)
	}
	if tok.Digest != digest {
		return fmt.Errorf("%w: %s token covers different content", ErrEvidenceInvalid, kind)
	}
	return nil
}
