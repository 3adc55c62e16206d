package brain

import (
	"testing"
	"time"

	"livenet/internal/sim"
)

// newTestRing builds an n-replica ring over a 6-node full mesh with a
// fixed 5 ms inter-replica delay.
func newTestRing(n int) (*sim.Loop, *Ring) {
	loop := sim.NewLoop(1)
	r := NewRing(Config{N: 6, Clock: loop}, n, func() time.Duration { return 5 * time.Millisecond })
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if a != b {
				r.ReportLink(a, b, 10*time.Millisecond, 0, 0.1)
			}
		}
	}
	return loop, r
}

func TestRingSIBConverges(t *testing.T) {
	loop, r := newTestRing(3)
	defer r.Close()
	r.RegisterStream(77, 2)
	loop.RunUntil(2 * time.Second)
	for i := 0; i < r.Replicas(); i++ {
		if p, ok := r.Replica(i).Local.Producer(77); !ok || p != 2 {
			t.Fatalf("replica %d: producer=%d ok=%v", i, p, ok)
		}
		// Any replica can now answer lookups.
		if paths, err := r.LookupAt(i, 77, 4); err != nil || len(paths) == 0 {
			t.Fatalf("replica %d lookup failed: %v", i, err)
		}
	}
}

func TestRingUnregisterConverges(t *testing.T) {
	loop, r := newTestRing(3)
	defer r.Close()
	r.RegisterStream(5, 1)
	loop.RunUntil(time.Second)
	r.Replica(1).UnregisterStream(5) // proposed at a different replica
	loop.RunUntil(3 * time.Second)
	for i := 0; i < r.Replicas(); i++ {
		if _, ok := r.Replica(i).Local.Producer(5); ok {
			t.Fatalf("replica %d still has the stream", i)
		}
	}
}

func TestRingSurvivesMinorityPartition(t *testing.T) {
	loop, r := newTestRing(3)
	defer r.Close()
	r.SetPartitioned(2, true) // one data center cut off
	r.RegisterStream(9, 3)
	loop.RunUntil(2 * time.Second)
	for i := 0; i < 2; i++ {
		if p, ok := r.Replica(i).Local.Producer(9); !ok || p != 3 {
			t.Fatalf("replica %d: producer=%d ok=%v", i, p, ok)
		}
	}
	if _, ok := r.Replica(2).Local.Producer(9); ok {
		t.Fatal("partitioned replica should not have the entry yet")
	}
	// The partition heals and the replica catches up: a new proposal
	// carries the commit traffic that lets it learn.
	r.SetPartitioned(2, false)
	r.RegisterStream(10, 4)
	loop.RunUntil(4 * time.Second)
	if p, ok := r.Replica(2).Local.Producer(10); !ok || p != 4 {
		t.Fatalf("healed replica missed new registration: %d %v", p, ok)
	}
}

func TestRingConcurrentRegistrations(t *testing.T) {
	loop, r := newTestRing(5)
	defer r.Close()
	for k := 0; k < 10; k++ {
		r.RegisterStream(uint32(100+k), k%6) // homes spread over the ring
	}
	loop.RunUntil(10 * time.Second)
	for k := 0; k < 10; k++ {
		for i := 0; i < r.Replicas(); i++ {
			if p, ok := r.Replica(i).Local.Producer(uint32(100 + k)); !ok || p != k%6 {
				t.Fatalf("replica %d stream %d: producer=%d ok=%v want %d", i, 100+k, p, ok, k%6)
			}
		}
	}
}

// TestRingRoutesAroundDeadReplicas pins the walk the Service methods
// share: a killed replica answers nothing and ingests nothing, the next
// live one takes over, and a ring with no live replica says so.
func TestRingRoutesAroundDeadReplicas(t *testing.T) {
	loop, r := newTestRing(3)
	defer r.Close()
	r.SetDown(0, true)
	r.RegisterStream(7, 3) // home replica 3 mod 3 = 0 is dead: proposed at 1
	r.ReportLinkDown(3, 4) // reaches replicas 1 and 2 only
	loop.RunUntil(2 * time.Second)
	if _, ok := r.Replica(0).Local.Producer(7); ok {
		t.Fatal("dead replica learned a registration")
	}
	if l := r.Replica(0).Local.View().Link(3, 4); l.Down {
		t.Fatal("dead replica ingested a report")
	}
	paths, err := r.Lookup(7, 4)
	if err != nil || len(paths) == 0 {
		t.Fatalf("lookup with replica 0 dead: %v %v", paths, err)
	}
	for _, p := range paths {
		if len(p) == 2 {
			t.Fatalf("served %v over the link reported down", p)
		}
	}
	r.SetDown(1, true)
	r.SetDown(2, true)
	if _, err := r.Lookup(7, 4); err != ErrNoReplica {
		t.Fatalf("all replicas dead: err = %v", err)
	}
	r.SetDown(5, true) // outside the ring: ignored
}
