package brain_test

import (
	"fmt"
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
)

var _ brain.Service = (*brainfed.Federation)(nil)

// The conformance fleet: 12 nodes on a line in three blocks of four.
// Links form a full mesh inside a block and join blocks only gateway to
// gateway; a link's RTT is the distance between its ends plus a fixed
// per-hop cost — a metric, so a path that leaves a block and comes back
// is strictly dominated. That is the quiet topology on which gateway
// stitching provably selects the monolith's best path.
var (
	svcPos      = []int{0, 3, 7, 12, 40, 44, 52, 54, 80, 85, 91, 96}
	svcGateways = []int{3, 4, 7, 8}
)

const svcN = 12

func svcLinked(i, j int) bool {
	gw := func(id int) bool {
		for _, g := range svcGateways {
			if g == id {
				return true
			}
		}
		return false
	}
	return i != j && (i/4 == j/4 || (gw(i) && gw(j)))
}

func svcRTT(i, j int) time.Duration {
	d := svcPos[i] - svcPos[j]
	if d < 0 {
		d = -d
	}
	return time.Duration(d+5) * time.Millisecond
}

// TestServiceConformance drives one script through every Service
// implementation and asserts that each step's best paths equal the
// monolith's. The script covers the whole surface: Global Discovery
// reports, registration, lookup, a link overload alarm, a link failure,
// drain and undrain of a relay, an epoch, prefetch, telemetry ingest,
// unregistration and Close.
func TestServiceConformance(t *testing.T) {
	type deployment struct {
		name string
		new  func(cfg brain.Config) brain.Service
	}
	fed := func(shards int) func(brain.Config) brain.Service {
		return func(cfg brain.Config) brain.Service {
			return brainfed.New(brainfed.Config{Brain: cfg, Partition: brainfed.Contiguous(svcN, shards, svcGateways)})
		}
	}
	deployments := []deployment{
		{"monolith", func(cfg brain.Config) brain.Service { return brain.New(cfg) }},
		{"federation-1", fed(1)},
		{"federation-3", fed(3)},
		{"ring-3", func(cfg brain.Config) brain.Service {
			return brain.NewRing(cfg, 3, func() time.Duration { return 5 * time.Millisecond })
		}},
	}

	const sid = 42
	const producer = 0
	// run plays the script and returns one line per observation.
	run := func(t *testing.T, d deployment) []string {
		loop := sim.NewLoop(1)
		svc := d.new(brain.Config{N: svcN, LastResort: svcGateways, Clock: loop})
		settle := func() { loop.RunUntil(loop.Now() + time.Second) } // lets a ring commit
		var log []string
		best := func(step string, consumers ...int) {
			for _, c := range consumers {
				paths, err := svc.Lookup(sid, c)
				if err != nil || len(paths) == 0 {
					t.Fatalf("%s/%s: lookup →%d: %v %v", d.name, step, c, paths, err)
				}
				log = append(log, fmt.Sprintf("%s →%d %v", step, c, paths[0]))
			}
		}

		links := 0
		for i := 0; i < svcN; i++ {
			for j := 0; j < svcN; j++ {
				if svcLinked(i, j) {
					svc.ReportLink(i, j, svcRTT(i, j), 0.0005, 0.2)
					links++
				}
			}
			svc.ReportNodeLoad(i, 0.2)
		}
		if _, err := svc.Lookup(sid, 6); err != brain.ErrUnknownStream {
			t.Fatalf("%s: lookup before registration: err = %v", d.name, err)
		}
		if _, err := svc.PrefetchPaths(sid); err != brain.ErrUnknownStream {
			t.Fatalf("%s: prefetch before registration: err = %v", d.name, err)
		}
		svc.RegisterStream(sid, producer)
		settle()
		best("quiet", 2, 6, 11)

		// Real-time alarm on the direct in-block link: decisions avoid it
		// at once, without waiting for an epoch.
		svc.LinkOverloadAlarm(0, 2, 0.95)
		best("link-alarm", 2)
		svc.OverloadAlarm(1, 0.95)
		best("node-alarm", 2, 6)
		svc.ReportNodeLoad(1, 0.2)
		svc.ReportLink(0, 2, svcRTT(0, 2), 0.0005, 0.2)

		svc.ReportLinkDown(0, 1)
		best("link-down", 1)

		// Drain gateway 4: block 1 is still reachable through gateway 7.
		svc.SetDraining(4, true)
		if !svc.Draining(4) || svc.Draining(7) {
			t.Fatalf("%s: Draining(4)=%v Draining(7)=%v", d.name, svc.Draining(4), svc.Draining(7))
		}
		best("drain", 6, 11)
		svc.SetDraining(4, false)
		if svc.Draining(4) {
			t.Fatalf("%s: still draining after undrain", d.name)
		}
		best("undrain", 6)

		svc.ReportLink(0, 1, svcRTT(0, 1), 0.0005, 0.2)
		svc.AdvanceEpoch()
		best("epoch", 1, 2, 6, 11)

		pre, err := svc.PrefetchPaths(sid)
		if err != nil || len(pre) != svcN-1 {
			t.Fatalf("%s: prefetch: %d destinations, err %v", d.name, len(pre), err)
		}
		for c := 1; c < svcN; c++ {
			log = append(log, fmt.Sprintf("prefetch →%d %v", c, pre[c][0]))
		}

		svc.ReportNodeTelemetry(3, telemetry.Snapshot{}, []uint32{sid})
		// Every link is counted once, however many shards or replicas
		// ingested the reports.
		if gv := svc.GlobalView(); gv.Nodes != svcN || gv.Links != links || gv.Streams != 1 || gv.FanOut[sid] != 1 {
			t.Fatalf("%s: GlobalView nodes=%d links=%d (reported %d) streams=%d fanout=%v", d.name, gv.Nodes, gv.Links, links, gv.Streams, gv.FanOut)
		}
		if m := svc.Metrics(); m.Lookups == 0 || m.StreamsActive != 1 || m.OverloadAlarms == 0 {
			t.Fatalf("%s: metrics %+v", d.name, m)
		}

		svc.UnregisterStream(sid)
		settle()
		if _, err := svc.Lookup(sid, 6); err != brain.ErrUnknownStream {
			t.Fatalf("%s: lookup after unregister: err = %v", d.name, err)
		}
		svc.Close()
		return log
	}

	want := run(t, deployments[0])
	for _, d := range deployments[1:] {
		t.Run(d.name, func(t *testing.T) {
			got := run(t, d)
			if len(got) != len(want) {
				t.Fatalf("%d observations, monolith made %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("diverged from the monolith:\n  monolith: %s\n  %s: %s", want[i], d.name, got[i])
				}
			}
		})
	}
	// The script must actually move the answers, or agreeing on them
	// proves nothing.
	seen := map[string]bool{}
	for _, l := range want {
		seen[l] = true
	}
	for _, l := range []string{"quiet →2 [0 2]", "link-alarm →2 [0 1 2]", "quiet →6 [0 3 4 6]", "drain →6 [0 3 7 6]", "undrain →6 [0 3 4 6]", "quiet →11 [0 3 8 11]"} {
		if !seen[l] {
			t.Errorf("monolith never observed %q; got:\n%v", l, want)
		}
	}
}
