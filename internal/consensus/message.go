// Package consensus implements the Byzantine fault tolerant consensus the
// paper's validators run (§III-A): a PBFT-style three-phase protocol
// (pre-prepare, prepare, commit) with quorum 2f+1 out of n = 3f+1, view
// changes on leader failure, signed messages, equivocation evidence and
// eviction of validators that act against the consensus rules.
package consensus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
)

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol message kinds.
const (
	MsgRequest MsgType = iota
	MsgPrePrepare
	MsgPrepare
	MsgCommit
	MsgViewChange
	MsgNewView
)

// String names the message type for logs.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "REQUEST"
	case MsgPrePrepare:
		return "PRE-PREPARE"
	case MsgPrepare:
		return "PREPARE"
	case MsgCommit:
		return "COMMIT"
	case MsgViewChange:
		return "VIEW-CHANGE"
	case MsgNewView:
		return "NEW-VIEW"
	default:
		return "UNKNOWN"
	}
}

// Message is the signed unit validators exchange.
type Message struct {
	Type   MsgType  `json:"type"`
	View   uint64   `json:"view"`
	Seq    uint64   `json:"seq"`
	Digest [32]byte `json:"digest"`
	From   string   `json:"from"`

	// Payload carries the proposed batch (Request, PrePrepare) and, in a
	// NewView, the re-proposed pending payloads.
	Payload []byte `json:"payload,omitempty"`

	// PrePrepareEvidence embeds the leader-signed pre-prepare a replica is
	// preparing, payload stripped, so peers can detect leader equivocation
	// conclusively at a size that does not grow with the batch.
	PrePrepareEvidence []byte `json:"pre_prepare_evidence,omitempty"`

	// Proofs carries the 2f+1 view-change messages justifying a NewView.
	Proofs [][]byte `json:"proofs,omitempty"`

	Signature []byte `json:"signature,omitempty"`

	// sigBytes memoises SigningBytes: quorum traffic verifies each message
	// once but the canonical bytes are also needed for the verify-cache key,
	// and broadcast signs the same bytes for every recipient. Unexported, so
	// JSON round-trips drop it (a decoded message recomputes lazily). Any
	// code that mutates a signed-over field after copying a Message must
	// call invalidate() or the memo goes stale.
	sigBytes []byte
}

// SigningBytes returns the canonical bytes covered by the signature,
// memoised after the first call. Not safe for concurrent first calls; the
// sender populates the memo before a message is shared across goroutines,
// after which all access is read-only.
func (m *Message) SigningBytes() []byte {
	if m.sigBytes == nil {
		m.sigBytes = m.computeSigningBytes()
	}
	return m.sigBytes
}

// invalidate drops the memoised signing bytes after a field mutation.
func (m *Message) invalidate() { m.sigBytes = nil }

func (m *Message) computeSigningBytes() []byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, byte(m.Type))
	buf = binary.BigEndian.AppendUint64(buf, m.View)
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = append(buf, m.Digest[:]...)
	buf = append(buf, []byte(m.From)...)
	// Payload and evidence are bound via hashes so signatures stay small.
	// A pre-prepare's payload is bound by Digest instead (receivers drop a
	// pre-prepare whose payload does not hash to it), so the leader's
	// signature survives stripping the payload for use as evidence.
	if m.Type != MsgPrePrepare {
		ph := sha256.Sum256(m.Payload)
		buf = append(buf, ph[:]...)
	}
	eh := sha256.Sum256(m.PrePrepareEvidence)
	buf = append(buf, eh[:]...)
	for _, p := range m.Proofs {
		hp := sha256.Sum256(p)
		buf = append(buf, hp[:]...)
	}
	return buf
}

// Encode serialises the message for embedding as evidence or proof.
func (m *Message) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic("consensus: message marshal: " + err.Error())
	}
	return b
}

// DecodeMessage parses a message encoded with Encode.
func DecodeMessage(b []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// DigestOf hashes a proposal payload.
func DigestOf(payload []byte) [32]byte { return sha256.Sum256(payload) }
