package brain

import (
	"encoding/binary"

	"livenet/internal/replication"
	"livenet/internal/sim"
)

// ReplicatedBrain geo-replicates Stream Management state across several
// Brain replicas with the Paxos-like scheme of §7.1 ("While logically
// centralized, the Streaming Brain is deployed on multiple geo-replicated
// data centers... We maintain consistency using a Paxos-like scheme").
// Stream registrations/unregistrations are proposed to the replicated log
// and applied to every replica's SIB in commit order, so any replica's
// Path Decision module answers lookups with a consistent view.
//
// (The PIB needs no consensus: it is soft state recomputed from Global
// Discovery reports, which every replica receives; only the SIB is
// authoritative configuration.)
type ReplicatedBrain struct {
	// Local is this site's Brain (answers lookups locally).
	Local   *Brain
	replica *replication.Replica
	// extra handles committed log entries that are not SIB ops (e.g. the
	// federation's stitch-cache entries). Set before any commit arrives.
	extra func(value []byte)
}

// SIB log entry encoding: op byte + stream ID + producer.
const (
	opRegister   = 1
	opUnregister = 2
)

func encodeSIBOp(op byte, sid uint32, producer uint16) []byte {
	buf := make([]byte, 7)
	buf[0] = op
	binary.BigEndian.PutUint32(buf[1:], sid)
	binary.BigEndian.PutUint16(buf[5:], producer)
	return buf
}

// NewReplicated wraps a local Brain as one replica of a geo-replicated
// deployment. id/peers/transport configure the Paxos group; clock drives
// proposal retries.
func NewReplicated(local *Brain, id int, peers []int, tr replication.Transport, clock sim.Clock) *ReplicatedBrain {
	rb := &ReplicatedBrain{Local: local}
	rb.replica = replication.NewReplica(id, peers, tr, clock)
	rb.replica.OnCommit = func(_ int, value []byte) {
		if len(value) == 7 && (value[0] == opRegister || value[0] == opUnregister) {
			sid := binary.BigEndian.Uint32(value[1:])
			producer := binary.BigEndian.Uint16(value[5:])
			switch value[0] {
			case opRegister:
				local.RegisterStream(sid, int(producer))
			case opUnregister:
				local.UnregisterStream(sid)
			}
			return
		}
		if rb.extra != nil {
			rb.extra(value)
		}
	}
	return rb
}

// SetExtraOpHandler installs the handler for committed log entries other
// than SIB ops. Install it right after construction, before proposals.
func (rb *ReplicatedBrain) SetExtraOpHandler(fn func(value []byte)) {
	rb.extra = fn
}

// ProposeOp proposes an arbitrary log entry (routed to the extra-op
// handler on commit at every replica).
func (rb *ReplicatedBrain) ProposeOp(value []byte) {
	rb.replica.Propose(value)
}

// Replica exposes the underlying Paxos replica (for transport wiring).
func (rb *ReplicatedBrain) Replica() *replication.Replica { return rb.replica }

// OnMessage is the transport delivery entry point for Paxos traffic.
func (rb *ReplicatedBrain) OnMessage(from int, m replication.Msg) {
	rb.replica.OnMessage(from, m)
}

// RegisterStream proposes the registration to the replicated log; it is
// applied everywhere (including locally) on commit.
func (rb *ReplicatedBrain) RegisterStream(sid uint32, producer int) {
	rb.replica.Propose(encodeSIBOp(opRegister, sid, uint16(producer)))
}

// UnregisterStream proposes the removal.
func (rb *ReplicatedBrain) UnregisterStream(sid uint32) {
	rb.replica.Propose(encodeSIBOp(opUnregister, sid, 0))
}

// Close stops the replica's timers.
func (rb *ReplicatedBrain) Close() {
	rb.replica.Close()
	rb.Local.Close()
}
