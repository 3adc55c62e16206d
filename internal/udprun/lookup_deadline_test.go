package udprun

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/client"
	"livenet/internal/media"
	"livenet/internal/node"
	"livenet/internal/sim"
	"livenet/internal/wire"
)

// lossyBrainServer is a BrainServer whose endpoint swallows the first
// PathRequest it receives: the datagram a real network would have lost.
func lossyBrainServer(t *testing.T, b BrainAPI) (*BrainServer, *atomic.Int32) {
	t.Helper()
	ep, err := Listen(BrainID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &BrainServer{Brain: b, ep: ep, nodes: b.GlobalView().Nodes, badNodeID: ep.opts.Telemetry.Counter("udprun.brain_bad_node_id")}
	swallowed := new(atomic.Int32)
	ep.Serve(func(from int, data []byte) {
		if wire.Kind(data) == wire.MsgPathRequest && swallowed.CompareAndSwap(0, 1) {
			return
		}
		srv.onMessage(from, data)
	})
	return srv, swallowed
}

// TestLostPathRequestFailsAtTheDeadline: a lookup whose request (or
// response) datagram is lost ends with ErrLookupUnanswered after
// LookupDeadline and leaves nothing in the pending map; the next lookup
// is answered.
func TestLostPathRequestFailsAtTheDeadline(t *testing.T) {
	b := brain.New(brain.Config{N: 2})
	defer b.Close()
	b.ReportLink(0, 1, 5*time.Millisecond, 0, 0.1)
	b.RegisterStream(7, 0)
	srv, swallowed := lossyBrainServer(t, b)
	defer srv.Close()

	ep, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cli, err := NewBrainClient(ep, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ep.Serve(cli.WrapHandler(func(int, []byte) {}))

	type answer struct {
		paths [][]int
		err   error
	}
	got := make(chan answer, 1)
	ask := func() answer {
		t.Helper()
		cli.Lookup(7, 1, func(p [][]int, err error) { got <- answer{p, err} })
		select {
		case a := <-got:
			return a
		case <-time.After(LookupDeadline + 2*time.Second):
			t.Fatal("lookup callback never fired: a lost datagram wedges the caller")
			return answer{}
		}
	}
	start := time.Now()
	if a := ask(); !errors.Is(a.err, ErrLookupUnanswered) {
		t.Fatalf("lost request: callback got (%v, %v), want ErrLookupUnanswered", a.paths, a.err)
	}
	if waited := time.Since(start); waited < LookupDeadline {
		t.Fatalf("deadline fired after %v, before LookupDeadline %v", waited, LookupDeadline)
	}
	if swallowed.Load() != 1 {
		t.Fatal("the server never saw the request it was meant to swallow")
	}
	cli.mu.Lock()
	left := len(cli.pending)
	cli.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d lookups still pending after the deadline", left)
	}
	if a := ask(); a.err != nil || len(a.paths) == 0 {
		t.Fatalf("second lookup: (%v, %v), want a path", a.paths, a.err)
	}
}

// TestStreamEstablishesAfterLostLookup is the node-level consequence: the
// consumer's first PathRequest is lost, its viewer parks, and the stream
// is established by the retry the deadline's error arms — at the parent
// the node stayed in "lookup pending" until the process restarted.
func TestStreamEstablishesAfterLostLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	clock := sim.NewRealClock()
	b := brain.New(brain.Config{N: 2})
	defer b.Close()
	b.ReportLink(0, 1, 5*time.Millisecond, 0, 0.1)
	b.ReportLink(1, 0, 5*time.Millisecond, 0, 0.1)
	srv, swallowed := lossyBrainServer(t, b)
	defer srv.Close()

	mkNode := func(id int) (*node.Node, *Endpoint) {
		ep, err := Listen(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cli, err := NewBrainClient(ep, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		n := node.New(node.Config{
			ID:               id,
			Clock:            clock,
			Net:              ep,
			PathLookup:       cli.Lookup,
			OnNewStream:      func(sid uint32) { cli.RegisterStream(sid, id) },
			IsOverlay:        func(peer int) bool { return peer < 100 },
			EstablishTimeout: 300 * time.Millisecond,
		})
		ep.Serve(cli.WrapHandler(n.OnMessage))
		return n, ep
	}
	producer, pep := mkNode(0)
	consumer, cep := mkNode(1)
	defer producer.Close()
	defer consumer.Close()
	defer pep.Close()
	defer cep.Close()
	if err := pep.AddPeer(1, cep.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cep.AddPeer(0, pep.Addr()); err != nil {
		t.Fatal(err)
	}

	bep, err := Listen(100, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bep.Close()
	bep.AddPeer(0, pep.Addr())
	bep.Serve(func(int, []byte) {})
	bc := client.NewBroadcaster(100, 0, 500, media.DefaultRenditions[2:], clock, bep, sim.NewSource(1).Stream("bc"))
	bc.Start()
	defer bc.Stop()
	sid := bc.StreamID(0)
	waitFor := func(what string, d time.Duration, ok func() bool) {
		t.Helper()
		for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
			if ok() {
				return
			}
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor("the stream's registration at the Brain", 2*time.Second, func() bool {
		_, ok := b.Producer(sid)
		return ok
	})

	consumer.AttachViewer(101, sid)
	waitFor("the swallowed PathRequest", time.Second, func() bool { return swallowed.Load() == 1 })
	if consumer.HasStream(sid) {
		t.Fatal("stream established although its only lookup was lost")
	}
	waitFor("the stream to be established by the retry", LookupDeadline+3*time.Second, func() bool { return consumer.HasStream(sid) })
}
