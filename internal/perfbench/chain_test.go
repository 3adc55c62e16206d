package perfbench

import (
	"testing"
	"time"

	"livenet/internal/media"
	"livenet/internal/stats"
)

// TestLoopbackChainFrameDelay is the `make ci` loopback smoke: one paced
// 600 kbit/s stream (25 frames a second of three 1000 B packets) through
// three udprun nodes at their default 8 Mbit/s pacers for two seconds. A
// frame's delay runs from the upload of its first packet to its last
// packet at the viewer's socket. Under the fixed 2 ms drain tick the
// median could not be under 6 ms; work-conserving it is a few hundred
// microseconds, and the 3 ms bound leaves a noisy runner its slack while
// a tick that comes back does not pass.
func TestLoopbackChainFrameDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("two seconds of real time on loopback sockets")
	}
	c, err := newUDPChain(8e6)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	const frames, perFrame = 50, 3
	var delays stats.Sample
	next := time.Now()
	for f := 0; f < frames; f++ {
		time.Sleep(time.Until(next))
		next = next.Add(40 * time.Millisecond)
		t0 := time.Now()
		var last uint16
		for k := 0; k < perFrame; k++ {
			last = c.send(media.FrameP, uint32(f+1), uint16(k), perFrame, 1000)
		}
		if !c.await(last, time.Second) {
			t.Fatalf("frame %d never reached the viewer", f)
		}
		delays.Add(float64(time.Since(t0)) / 1e6)
	}
	med := delays.Median()
	t.Logf("frame delay over three hops: p50 %.3f ms, max %.3f ms", med, delays.Max())
	if med > 3 {
		t.Fatalf("median frame delay over three hops is %.2f ms, want ≤ 3 ms: is a packet waiting for a drain tick again?", med)
	}
}
