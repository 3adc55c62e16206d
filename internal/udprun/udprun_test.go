package udprun

import (
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
	"livenet/internal/client"
	"livenet/internal/media"
	"livenet/internal/node"
	"livenet/internal/sim"
	"livenet/internal/wire"
)

func TestEndpointRoundTrip(t *testing.T) {
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer(2, b.Addr()); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	b.Serve(func(from int, data []byte) {
		if from == 1 {
			got <- append([]byte(nil), data...) // handlers borrow data
		}
	})
	if err := a.Send(1, 2, []byte("hello overlay")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if string(d) != "hello overlay" {
			t.Fatalf("got %q", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}
	// Reverse direction works via auto-registration (b learned a's addr).
	got2 := make(chan []byte, 1)
	a.Serve(func(from int, data []byte) { got2 <- append([]byte(nil), data...) })
	if err := b.Send(2, 1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got2:
		if string(d) != "back" {
			t.Fatalf("got %q", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reverse datagram never arrived")
	}
}

func TestSendUnknownPeer(t *testing.T) {
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(1, 99, []byte("x")); err != ErrUnknownPeer {
		t.Fatalf("err = %v", err)
	}
}

func TestBrainRPC(t *testing.T) {
	b := brain.New(brain.Config{N: 4})
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				b.ReportLink(i, j, 10*time.Millisecond, 0, 0.1)
			}
		}
	}
	srv, err := NewBrainServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ep, err := Listen(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cli, err := NewBrainClient(ep, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ep.Serve(cli.WrapHandler(func(int, []byte) {}))

	// Register a stream over RPC, then look it up.
	cli.RegisterStream(77, 0)
	time.Sleep(50 * time.Millisecond)

	done := make(chan [][]int, 1)
	cli.Lookup(77, 2, func(paths [][]int, err error) {
		if err != nil {
			t.Errorf("lookup: %v", err)
		}
		done <- paths
	})
	select {
	case paths := <-done:
		if len(paths) == 0 || paths[0][0] != 0 || paths[0][len(paths[0])-1] != 2 {
			t.Fatalf("paths = %v", paths)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lookup timed out")
	}

	// Unknown stream error propagates.
	errc := make(chan error, 1)
	cli.Lookup(999, 2, func(_ [][]int, err error) { errc <- err })
	select {
	case err := <-errc:
		if err != brain.ErrUnknownStream {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("unknown-stream lookup timed out")
	}

	// Discovery report lands in the Brain's view.
	cli.Report(wire.NodeReport{From: 1, To: 3, RTTMicros: 25000, LossPPM: 500, UtilPercent: 1200, NodeUtil: 900})
	time.Sleep(50 * time.Millisecond)
	g := b.View()
	if l := g.Link(1, 3); l == nil || l.RTT != 25*time.Millisecond {
		t.Fatalf("report not applied: %+v", l)
	}
}

// TestRealUDPStreaming runs a full LiveNet slice over loopback UDP with
// the wall clock: brain + producer + consumer nodes + broadcaster +
// viewer — the multi-node deployment path the cmd/ binaries use.
func TestRealUDPStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	clock := sim.NewRealClock()

	b := brain.New(brain.Config{N: 2})
	b.ReportLink(0, 1, 5*time.Millisecond, 0, 0.1)
	b.ReportLink(1, 0, 5*time.Millisecond, 0, 0.1)
	srv, err := NewBrainServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
			ID:          id,
			Clock:       clock,
			Net:         ep,
			PathLookup:  cli.Lookup,
			OnNewStream: func(sid uint32) { cli.RegisterStream(sid, id) },
			IsOverlay:   func(peer int) bool { return peer < 100 },
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
	// Overlay nodes know each other.
	if err := pep.AddPeer(1, cep.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cep.AddPeer(0, pep.Addr()); err != nil {
		t.Fatal(err)
	}

	// Broadcaster (client id 100) uploads to the producer.
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
	time.Sleep(400 * time.Millisecond)

	// Viewer (client id 101) attaches at the consumer.
	vep, err := Listen(101, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer vep.Close()
	vep.AddPeer(1, cep.Addr())
	// The viewing request carries the client's address in a real
	// deployment; register it at the consumer explicitly here.
	cep.AddPeer(101, vep.Addr())
	viewer := client.NewViewer(101, bc.StreamID(0), 1, clock, vep)
	vep.Serve(viewer.OnMessage)
	viewer.Attach()
	defer viewer.Close()
	consumer.AttachViewer(101, bc.StreamID(0))

	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if s := viewer.Stats(); s.Started && s.FramesPlayed >= 25 {
			return // a second of real video flowed over real sockets
		}
		time.Sleep(100 * time.Millisecond)
	}
	s := viewer.Stats()
	t.Fatalf("real-UDP streaming failed: started=%v played=%d missed=%d",
		s.Started, s.FramesPlayed, s.FramesMissed)
}

func TestProberMeasuresRTT(t *testing.T) {
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())

	pa := NewProber(a)
	pb := NewProber(b)
	a.Serve(pa.WrapHandler(func(int, []byte) {}))
	b.Serve(pb.WrapHandler(func(int, []byte) {}))

	done := make(chan time.Duration, 1)
	pa.Ping(2, 2*time.Second, func(rtt time.Duration, ok bool) {
		if !ok {
			t.Error("ping timed out")
		}
		done <- rtt
	})
	select {
	case rtt := <-done:
		if rtt <= 0 || rtt > 500*time.Millisecond {
			t.Fatalf("loopback RTT = %v", rtt)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ping callback never fired")
	}
}

func TestProberTimeout(t *testing.T) {
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Peer 9 registered with an address nobody listens on.
	a.AddPeer(9, "127.0.0.1:1")
	p := NewProber(a)
	a.Serve(p.WrapHandler(func(int, []byte) {}))
	done := make(chan bool, 1)
	p.Ping(9, 200*time.Millisecond, func(_ time.Duration, ok bool) { done <- ok })
	select {
	case ok := <-done:
		if ok {
			t.Fatal("ping to dead peer should time out")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout callback never fired")
	}
}

func TestBrainDrainRPC(t *testing.T) {
	b := brain.New(brain.Config{N: 4})
	defer b.Close()
	srv, err := NewBrainServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ep, err := Listen(AdminID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.AddPeer(BrainID, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	acks := make(chan wire.DrainAck, 4)
	ep.Serve(func(from int, data []byte) {
		var ack wire.DrainAck
		if ack.Unmarshal(data) == nil {
			acks <- ack
		}
	})

	send := func(node int, drain bool) wire.DrainAck {
		t.Helper()
		req := wire.DrainNode{Node: uint16(node), Drain: drain}
		if err := ep.Send(AdminID, BrainID, req.Marshal(nil)); err != nil {
			t.Fatal(err)
		}
		select {
		case ack := <-acks:
			return ack
		case <-time.After(2 * time.Second):
			t.Fatal("DrainAck never arrived")
			return wire.DrainAck{}
		}
	}

	if ack := send(2, true); ack.Node != 2 || !ack.Draining {
		t.Fatalf("drain ack %+v", ack)
	}
	if !b.Draining(2) {
		t.Fatal("brain did not mark node 2 draining")
	}
	if ack := send(2, false); ack.Node != 2 || ack.Draining {
		t.Fatalf("undrain ack %+v", ack)
	}
	if b.Draining(2) {
		t.Fatal("brain did not readmit node 2")
	}
}

// TestBrainServerRejectsHostileNodeIDs sends the server one datagram of
// every kind that carries a node ID, each naming a node far outside
// [0, N). Unchecked, those IDs index the Brain's view (a monolith) or the
// partition table (a federation) and panic the process; the server must
// drop and count them, and keep serving.
func TestBrainServerRejectsHostileNodeIDs(t *testing.T) {
	const n, hostile = 8, 60000
	services := map[string]brain.Service{
		"monolith":   brain.New(brain.Config{N: n}),
		"federation": brainfed.New(brainfed.Config{Brain: brain.Config{N: n}, Partition: brainfed.Contiguous(n, 2, nil)}),
	}
	for name, svc := range services {
		t.Run(name, func(t *testing.T) {
			defer svc.Close()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						svc.ReportLink(i, j, 10*time.Millisecond, 0, 0.1)
					}
				}
			}
			svc.RegisterStream(77, 0)
			srv, err := NewBrainServer(svc, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ep, err := Listen(2, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			cli, err := NewBrainClient(ep, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			ep.Serve(cli.WrapHandler(func(int, []byte) {}))

			datagrams := [][]byte{
				(&wire.NodeReport{From: hostile, To: 1}).Marshal(nil),
				(&wire.NodeReport{From: 1, To: hostile}).Marshal(nil),
				(&wire.PathRequest{StreamID: 77, Consumer: hostile, Token: 1}).Marshal(nil),
				(&wire.RegisterStream{StreamID: 78, Producer: hostile}).Marshal(nil),
				(&wire.DrainNode{Node: hostile, Drain: true}).Marshal(nil),
			}
			for _, d := range datagrams {
				if err := ep.Send(2, BrainID, d); err != nil {
					t.Fatal(err)
				}
			}

			// The server handles one socket's datagrams in order: an answer
			// to this lookup means the hostile ones were all seen first.
			done := make(chan [][]int, 1)
			cli.Lookup(77, 5, func(paths [][]int, err error) {
				if err != nil {
					t.Errorf("lookup after hostile input: %v", err)
				}
				done <- paths
			})
			select {
			case paths := <-done:
				if len(paths) == 0 || paths[0][0] != 0 || paths[0][len(paths[0])-1] != 5 {
					t.Fatalf("paths = %v", paths)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("lookup after hostile input timed out")
			}
			if got := srv.BadNodeIDs(); got != uint64(len(datagrams)) {
				t.Fatalf("BadNodeIDs = %d, want %d", got, len(datagrams))
			}
			if svc.Draining(n - 1) {
				t.Fatal("unrelated state changed")
			}
		})
	}
}
