package node

import "livenet/internal/telemetry"

// instruments are the node's registered telemetry handles. They are
// resolved once at construction; each handle is a single atomic word, and
// with a nil registry the handles are unregistered instruments that still
// work — so the fast path carries no nil checks, no branches, and no
// allocations whether telemetry is enabled or not.
type instruments struct {
	packetsReceived  *telemetry.Counter
	packetsForwarded *telemetry.Counter
	nacksSent        *telemetry.Counter
	nacksReceived    *telemetry.Counter
	retransmits      *telemetry.Counter
	holesRecovered   *telemetry.Counter
	holesAbandoned   *telemetry.Counter
	localHits        *telemetry.Counter
	pathLookups      *telemetry.Counter
	pathSwitches     *telemetry.Counter
	droppedBFrames   *telemetry.Counter
	droppedPFrames   *telemetry.Counter
	droppedGoPs      *telemetry.Counter
	cacheHitPrimes   *telemetry.Counter
	bitrateSwitches  *telemetry.Counter
	upstreamTimeouts *telemetry.Counter
	fastSwitches     *telemetry.Counter
	// Planned/unplanned attribution of fastSwitches: a make-before-break
	// splice (planned) vs the silence-detection ladder (unplanned).
	fastSwitchesPlanned   *telemetry.Counter
	fastSwitchesUnplanned *telemetry.Counter
	cacheFallbacks        *telemetry.Counter
	migrationsStarted     *telemetry.Counter
	migrationsCompleted   *telemetry.Counter
	migrationsAborted     *telemetry.Counter
	pacerQueueUs          *telemetry.Histogram
	pacerWaitUs           *telemetry.Histogram
	drainPasses           *telemetry.Counter
	drainTimerPasses      *telemetry.Counter
	fanoutBatch           *telemetry.Histogram
	framePoolHits         *telemetry.Counter
	framePoolMisses       *telemetry.Counter
}

func newInstruments(r *telemetry.Registry) instruments {
	return instruments{
		packetsReceived:       r.Counter("node.packets_received"),
		packetsForwarded:      r.Counter("node.packets_forwarded"),
		nacksSent:             r.Counter("node.nacks_sent"),
		nacksReceived:         r.Counter("node.nacks_received"),
		retransmits:           r.Counter("node.retransmits"),
		holesRecovered:        r.Counter("node.holes_recovered"),
		holesAbandoned:        r.Counter("node.holes_abandoned"),
		localHits:             r.Counter("node.local_hits"),
		pathLookups:           r.Counter("node.path_lookups"),
		pathSwitches:          r.Counter("node.path_switches"),
		droppedBFrames:        r.Counter("node.dropped_b_frames"),
		droppedPFrames:        r.Counter("node.dropped_p_frames"),
		droppedGoPs:           r.Counter("node.dropped_gops"),
		cacheHitPrimes:        r.Counter("node.cache_hit_primes"),
		bitrateSwitches:       r.Counter("node.bitrate_switches"),
		upstreamTimeouts:      r.Counter("node.upstream_timeouts"),
		fastSwitches:          r.Counter("node.fast_switches"),
		fastSwitchesPlanned:   r.Counter("node.fast_switches_planned"),
		fastSwitchesUnplanned: r.Counter("node.fast_switches_unplanned"),
		cacheFallbacks:        r.Counter("node.cache_fallbacks"),
		migrationsStarted:     r.Counter("node.migrations_started"),
		migrationsCompleted:   r.Counter("node.migrations_completed"),
		migrationsAborted:     r.Counter("node.migrations_aborted"),
		pacerQueueUs:          r.Histogram("node.pacer_queue_us"),
		pacerWaitUs:           r.Histogram("node.pacer_wait_us"),
		drainPasses:           r.Counter("node.drain_passes"),
		drainTimerPasses:      r.Counter("node.drain_timer_passes"),
		fanoutBatch:           r.Histogram("node.fanout_batch_size"),
		framePoolHits:         r.Counter("node.frame_pool_hits"),
		framePoolMisses:       r.Counter("node.frame_pool_misses"),
	}
}
