package brain

import (
	"errors"
	"time"

	"livenet/internal/replication"
	"livenet/internal/telemetry"
)

// ErrNoReplica is returned by a Ring whose every replica is down.
var ErrNoReplica = errors.New("brain: no live replica")

// Ring is the geo-replicated Streaming Brain of §7.1 behind the Service
// surface: R replicas, each a full Brain with its own view and PIB, whose
// SIBs agree through one Paxos group. Registrations are proposed at a
// live replica and apply everywhere on commit; reports and drain marks
// reach every live replica (a dead one catches up from later reports);
// path queries are answered by one replica from its local state.
//
// The ring is also the group's Paxos transport and the chaos plane's
// fault surface: SetDown kills a replica, SetPartitioned cuts it off from
// consensus while it keeps serving lookups. Those two setters and the
// transport run on the replicas' clock goroutine; they are not locked.
type Ring struct {
	replicas    []*ReplicatedBrain
	down        []bool
	partitioned []bool
	delay       func() time.Duration
	cfg         Config
}

// NewRing builds n replicas from cfg (cfg.Clock is required: it delivers
// consensus traffic and drives proposal retries). delay draws the one-way
// latency of each inter-replica message.
func NewRing(cfg Config, n int, delay func() time.Duration) *Ring {
	r := &Ring{
		down:        make([]bool, n),
		partitioned: make([]bool, n),
		delay:       delay,
		cfg:         cfg,
	}
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	for i := 0; i < n; i++ {
		r.replicas = append(r.replicas, NewReplicated(New(cfg), i, peers, r, cfg.Clock))
	}
	return r
}

// Replicas returns the ring size.
func (r *Ring) Replicas() int { return len(r.replicas) }

// Replica exposes one member (tests and reports read its Brain and log).
func (r *Ring) Replica(i int) *ReplicatedBrain { return r.replicas[i] }

// Down reports whether replica i is killed.
func (r *Ring) Down(i int) bool { return r.down[i] }

// SetDown kills or restarts replica i: while down it answers nothing,
// ingests nothing and drops out of consensus. Out-of-ring i is ignored.
func (r *Ring) SetDown(i int, down bool) {
	if i >= 0 && i < len(r.down) {
		r.down[i] = down
	}
}

// SetPartitioned cuts replica i off from consensus traffic (or heals it);
// it keeps serving lookups. Out-of-ring i is ignored.
func (r *Ring) SetPartitioned(i int, cut bool) {
	if i >= 0 && i < len(r.partitioned) {
		r.partitioned[i] = cut
	}
}

// Send implements replication.Transport: messages to or from a killed or
// partitioned replica vanish, the rest arrive after the modeled delay.
func (r *Ring) Send(from, to int, m replication.Msg) {
	if r.down[from] || r.down[to] || r.partitioned[from] || r.partitioned[to] {
		return
	}
	r.cfg.Clock.AfterFunc(r.delay(), func() {
		if !r.down[to] && !r.partitioned[to] {
			r.replicas[to].OnMessage(from, m)
		}
	})
}

// firstLive walks the ring from replica start and returns the first live
// member, or nil when every replica is down.
func (r *Ring) firstLive(start int) *ReplicatedBrain {
	for t := 0; t < len(r.replicas); t++ {
		if idx := (start + t) % len(r.replicas); !r.down[idx] {
			return r.replicas[idx]
		}
	}
	return nil
}

// eachLive applies fn to every live replica's local Brain.
func (r *Ring) eachLive(fn func(*Brain)) {
	for i, rb := range r.replicas {
		if !r.down[i] {
			fn(rb.Local)
		}
	}
}

// LookupAt answers from replica i (which must be live): the cluster's
// timed failover walk models per-replica reachability itself.
func (r *Ring) LookupAt(i int, sid uint32, consumer int) ([][]int, error) {
	return r.replicas[i].Local.Lookup(sid, consumer)
}

// Lookup answers from the first live replica.
func (r *Ring) Lookup(sid uint32, consumer int) ([][]int, error) {
	if rb := r.firstLive(0); rb != nil {
		return rb.Local.Lookup(sid, consumer)
	}
	return nil, ErrNoReplica
}

// PrefetchPaths answers from the first live replica.
func (r *Ring) PrefetchPaths(sid uint32) (map[int][][]int, error) {
	if rb := r.firstLive(0); rb != nil {
		return rb.Local.PrefetchPaths(sid)
	}
	return nil, ErrNoReplica
}

// RegisterStream proposes the registration at the producer's home
// replica (producer mod R), or the next live one.
func (r *Ring) RegisterStream(sid uint32, producer int) {
	if rb := r.firstLive(producer); rb != nil {
		rb.RegisterStream(sid, producer)
	}
}

// UnregisterStream proposes the removal at the first live replica.
func (r *Ring) UnregisterStream(sid uint32) {
	if rb := r.firstLive(0); rb != nil {
		rb.UnregisterStream(sid)
	}
}

func (r *Ring) ReportLink(from, to int, rtt time.Duration, loss, util float64) {
	r.eachLive(func(b *Brain) { b.ReportLink(from, to, rtt, loss, util) })
}

func (r *Ring) ReportLinkDown(from, to int) {
	r.eachLive(func(b *Brain) { b.ReportLinkDown(from, to) })
}

func (r *Ring) ReportNodeLoad(id int, util float64) {
	r.eachLive(func(b *Brain) { b.ReportNodeLoad(id, util) })
}

func (r *Ring) OverloadAlarm(id int, util float64) {
	r.eachLive(func(b *Brain) { b.OverloadAlarm(id, util) })
}

func (r *Ring) LinkOverloadAlarm(from, to int, util float64) {
	r.eachLive(func(b *Brain) { b.LinkOverloadAlarm(from, to, util) })
}

func (r *Ring) ReportNodeTelemetry(id int, snap telemetry.Snapshot, streams []uint32) {
	r.eachLive(func(b *Brain) { b.ReportNodeTelemetry(id, snap, streams) })
}

func (r *Ring) SetDraining(id int, v bool) {
	r.eachLive(func(b *Brain) { b.SetDraining(id, v) })
}

// Draining reports the first live replica's mark.
func (r *Ring) Draining(id int) bool {
	rb := r.firstLive(0)
	return rb != nil && rb.Local.Draining(id)
}

func (r *Ring) AdvanceEpoch() {
	r.eachLive(func(b *Brain) { b.AdvanceEpoch() })
}

// GlobalView is the first live replica's fleet summary (every live
// replica ingests the same reports).
func (r *Ring) GlobalView() GlobalView {
	if rb := r.firstLive(0); rb != nil {
		return rb.Local.GlobalView()
	}
	return GlobalView{Nodes: r.cfg.N}
}

// Metrics is the first live replica's counters. Replicas built from one
// Config.Telemetry registry count into the same instruments, so there
// the reading is the ring total; without one it is that replica's share.
func (r *Ring) Metrics() Metrics {
	if rb := r.firstLive(0); rb != nil {
		return rb.Local.Metrics()
	}
	return Metrics{}
}

// Close stops every replica's timers.
func (r *Ring) Close() {
	for _, rb := range r.replicas {
		rb.Close()
	}
}
