package consensus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"socialchain/internal/msp"
)

// idleReplicas builds n validators over one in-process net without
// starting them: a test feeds a replica messages through dispatch and
// reads what it sent straight from the other replicas' inboxes.
func idleReplicas(t *testing.T, n int) ([]*Validator, []*msp.Signer) {
	t.Helper()
	net := NewInProcNet(nil, nil)
	ids := make([]string, n)
	signers := make([]*msp.Signer, n)
	idents := make(map[string]msp.Identity, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
		s, err := msp.NewSigner("org", ids[i], msp.RoleMember)
		if err != nil {
			t.Fatalf("signer: %v", err)
		}
		signers[i] = s
		idents[ids[i]] = s.Identity
	}
	vs := make([]*Validator, n)
	for i := range vs {
		vs[i] = NewValidator(Config{ID: ids[i], Validators: ids, Signer: signers[i], Identities: idents, Sender: net})
	}
	return vs, signers
}

// leaderPrePrepare returns a pre-prepare for seq 1 of view 0 binding
// digest, carrying payload, signed by the view's leader v0.
func leaderPrePrepare(leader *msp.Signer, digest [32]byte, payload []byte) *Message {
	pp := &Message{Type: MsgPrePrepare, Seq: 1, Digest: digest, From: "v0", Payload: payload}
	pp.Signature = leader.Sign(pp.SigningBytes())
	return pp
}

// prepareEvidence hands follower v1 the leader's pre-prepare of payload
// and returns the evidence v1's prepare carries and the leader's identity.
func prepareEvidence(t *testing.T, payload []byte) ([]byte, msp.Identity) {
	t.Helper()
	vs, signers := idleReplicas(t, 4)
	vs[1].dispatch(leaderPrePrepare(signers[0], DigestOf(payload), payload))
	select {
	case m := <-vs[2].inbox:
		if m.Type != MsgPrepare || m.From != "v1" {
			t.Fatalf("v2 received %v from %s, want v1's PREPARE", m.Type, m.From)
		}
		return m.PrePrepareEvidence, signers[0].Identity
	default:
		t.Fatal("v1 sent no prepare")
		return nil, msp.Identity{}
	}
}

// TestPrepareEvidenceIsDigestOnly checks that a prepare carries the
// leader's pre-prepare without its payload, still validly signed, and
// that the evidence does not grow with the batch.
func TestPrepareEvidenceIsDigestOnly(t *testing.T) {
	var sizes []int
	for _, n := range []int{1 << 10, 1 << 20} {
		payload := bytes.Repeat([]byte{'x'}, n)
		enc, leader := prepareEvidence(t, payload)
		pp, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%d B batch: decode evidence: %v", n, err)
		}
		if pp.Type != MsgPrePrepare || pp.From != "v0" || pp.Digest != DigestOf(payload) {
			t.Fatalf("%d B batch: evidence is %v from %s", n, pp.Type, pp.From)
		}
		if len(pp.Payload) != 0 {
			t.Fatalf("%d B batch: evidence carries a %d B payload", n, len(pp.Payload))
		}
		if !leader.Verify(pp.SigningBytes(), pp.Signature) {
			t.Fatalf("%d B batch: stripped evidence no longer verifies under the leader's key", n)
		}
		// JSON writes the digest as 32 decimal numbers whose width depends
		// on the hash; everything else is fixed-width for a fixed view/seq.
		digest, _ := json.Marshal(pp.Digest)
		sizes = append(sizes, len(enc)-len(digest))
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("evidence size grows with the batch: %d B for 1 KiB, %d B for 1 MiB (digest excluded)", sizes[0], sizes[1])
	}
}

// TestPrePrepareWithWrongPayloadIgnored checks the check that lets a
// pre-prepare's signature leave the payload out: a validly signed
// pre-prepare whose payload does not hash to its digest is dropped.
func TestPrePrepareWithWrongPayloadIgnored(t *testing.T) {
	vs, signers := idleReplicas(t, 4)
	payload := []byte("batch")
	pp := leaderPrePrepare(signers[0], DigestOf(payload), []byte("swapped batch"))
	if !signers[0].Identity.Verify(pp.SigningBytes(), pp.Signature) {
		t.Fatal("the tampered pre-prepare should still carry a valid signature")
	}
	vs[1].dispatch(pp)
	select {
	case m := <-vs[2].inbox:
		t.Fatalf("v1 answered a pre-prepare with the wrong payload: sent %v", m.Type)
	default:
	}
	vs[1].mu.Lock()
	defer vs[1].mu.Unlock()
	if inst, ok := vs[1].insts[1]; ok && len(inst.prePrepare) > 0 {
		t.Fatal("v1 accepted a pre-prepare whose payload does not hash to its digest")
	}
}
