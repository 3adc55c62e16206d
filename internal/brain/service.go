package brain

import (
	"time"

	"livenet/internal/telemetry"
)

// Service is the Streaming Brain as its callers see it: one logically
// centralized controller (§4.2–4.3), whatever is deployed behind it. The
// packet-level cluster, the macro simulator, the UDP server and
// cmd/livenet-brain all hold exactly one Service, chosen once at
// construction; the implementations are *Brain (the monolith), *Ring
// (the Paxos-replicated group of §7.1) and *brainfed.Federation
// (per-region shards behind a stitching front-end).
//
// Node IDs passed in must lie in [0, N): implementations index their
// view and partition tables with them unchecked. Input from outside the
// process is range-checked where it enters (udprun.BrainServer).
type Service interface {
	// Path Decision.
	Lookup(sid uint32, consumer int) ([][]int, error)
	PrefetchPaths(sid uint32) (map[int][][]int, error)

	// Stream Management.
	RegisterStream(sid uint32, producer int)
	UnregisterStream(sid uint32)

	// Global Discovery: periodic reports, immediate failure reports and
	// real-time overload alarms.
	ReportLink(from, to int, rtt time.Duration, loss, util float64)
	ReportLinkDown(from, to int)
	ReportNodeLoad(id int, util float64)
	OverloadAlarm(id int, util float64)
	LinkOverloadAlarm(from, to int, util float64)
	ReportNodeTelemetry(id int, snap telemetry.Snapshot, streams []uint32)

	// Planned reconfiguration: a draining relay is excluded from new
	// path decisions.
	SetDraining(id int, v bool)
	Draining(id int) bool

	// AdvanceEpoch runs one Global Routing round now (deployments with a
	// Clock also run it on their own timer).
	AdvanceEpoch()

	GlobalView() GlobalView
	Metrics() Metrics
	Close()
}

var (
	_ Service = (*Brain)(nil)
	_ Service = (*Ring)(nil)
)
