// livenet-brain runs a standalone Streaming Brain over UDP: it serves
// path lookups (Path Decision), stream registrations (Stream Management)
// and link reports (Global Discovery) for overlay nodes started with
// cmd/livenet-node, on this or other machines.
//
//	livenet-brain -listen 0.0.0.0:7000 -nodes 8
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
	"livenet/internal/sim"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "UDP listen address")
	n := flag.Int("nodes", 8, "number of overlay node IDs (0..n-1)")
	lastResort := flag.String("last-resort", "", "comma-separated reserved relay node IDs")
	epoch := flag.Duration("epoch", 10*time.Minute, "Global Routing recomputation period")
	regions := flag.Int("regions", 0, "federate the Brain into this many contiguous-ID shards (0 = monolith; reserved relays double as shard gateways)")
	drain := flag.Int("drain", -1, "admin mode: mark this node draining on a running Brain (-connect) and exit")
	undrain := flag.Int("undrain", -1, "admin mode: readmit this node on a running Brain (-connect) and exit")
	connect := flag.String("connect", "", "Brain address for -drain/-undrain admin mode (default: the -listen address)")
	flag.Parse()

	if *drain >= 0 || *undrain >= 0 {
		target, draining := *drain, true
		if *undrain >= 0 {
			target, draining = *undrain, false
		}
		addr := *connect
		if addr == "" {
			addr = *listen
		}
		if err := adminDrain(addr, target, draining); err != nil {
			fmt.Fprintln(os.Stderr, "livenet-brain:", err)
			os.Exit(1)
		}
		return
	}

	var lr []int
	if *lastResort != "" {
		for _, s := range strings.Split(*lastResort, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "livenet-brain: bad -last-resort:", err)
				os.Exit(1)
			}
			lr = append(lr, id)
		}
	}

	bcfg := brain.Config{
		N:          *n,
		LastResort: lr,
		RouteEpoch: *epoch,
		Clock:      sim.NewRealClock(),
	}
	// One Streaming Brain service, chosen here; everything below is the
	// same whichever deployment is behind it.
	var svc brain.Service
	shards := ""
	if *regions > 1 {
		// Federated Brain: contiguous ID blocks, reserved relays reused
		// as the cross-shard stitch gateways.
		fed := brainfed.New(brainfed.Config{
			Brain:     bcfg,
			Partition: brainfed.Contiguous(*n, *regions, lr),
		})
		svc, shards = fed, fmt.Sprintf(", %d shards", fed.Shards())
	} else {
		svc = brain.New(bcfg)
	}
	defer svc.Close()
	srv, err := udprun.NewBrainServer(svc, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livenet-brain:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("Streaming Brain: %d nodes%s, listening on %s (epoch %v)\n", *n, shards, srv.Addr(), *epoch)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(30 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("shutting down")
			return
		case <-tick.C:
			m := svc.Metrics()
			fmt.Printf("lookups=%d pibHits=%d pibMisses=%d lastResort=%d alarms=%d streams=%d\n",
				m.Lookups, m.PIBHits, m.PIBMisses, m.LastResortUsed, m.OverloadAlarms, m.StreamsActive)
		}
	}
}

// adminDrain sends one DrainNode admin RPC to a running Brain at addr
// and waits for the DrainAck confirming the state change.
func adminDrain(addr string, node int, draining bool) error {
	ep, err := udprun.Listen(udprun.AdminID, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ep.Close()
	if err := ep.AddPeer(udprun.BrainID, addr); err != nil {
		return err
	}
	acked := make(chan wire.DrainAck, 1)
	ep.Serve(func(from int, data []byte) {
		var ack wire.DrainAck
		if ack.Unmarshal(data) == nil {
			select {
			case acked <- ack:
			default:
			}
		}
	})
	req := wire.DrainNode{Node: uint16(node), Drain: draining}
	// The RPC is a single datagram each way; retry a few times so one
	// lost packet does not fail the admin action.
	for attempt := 0; attempt < 5; attempt++ {
		if err := ep.Send(udprun.AdminID, udprun.BrainID, req.Marshal(nil)); err != nil {
			return err
		}
		select {
		case ack := <-acked:
			state := "draining"
			if !ack.Draining {
				state = "active"
			}
			fmt.Printf("node %d is now %s\n", ack.Node, state)
			return nil
		case <-time.After(500 * time.Millisecond):
		}
	}
	return fmt.Errorf("no DrainAck from %s after 5 attempts", addr)
}
