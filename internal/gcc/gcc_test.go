package gcc

import (
	"testing"
	"time"
)

const ms = time.Millisecond

func TestInterArrivalStableSpacing(t *testing.T) {
	var ia InterArrival
	// Send and arrival spacings identical: samples should be ~0.
	for i := 0; i < 50; i++ {
		send := time.Duration(i) * 10 * ms
		arr := send + 30*ms
		if d, ok := ia.Add(send, arr); ok && d != 0 {
			t.Fatalf("stable spacing produced nonzero sample %v", d)
		}
	}
}

func TestInterArrivalQueueBuildup(t *testing.T) {
	var ia InterArrival
	positives := 0
	for i := 0; i < 50; i++ {
		send := time.Duration(i) * 10 * ms
		// Arrival spacing inflates by 1 ms per group: queues building.
		arr := send + 30*ms + time.Duration(i*i/2)*ms/5
		if d, ok := ia.Add(send, arr); ok && d > 0 {
			positives++
		}
	}
	if positives < 20 {
		t.Fatalf("queue buildup should yield positive samples, got %d", positives)
	}
}

func TestInterArrivalGroupsBursts(t *testing.T) {
	var ia InterArrival
	samples := 0
	// Packets 1 ms apart in send time fall into 5 ms groups.
	for i := 0; i < 100; i++ {
		send := time.Duration(i) * ms
		if _, ok := ia.Add(send, send+20*ms); ok {
			samples++
		}
	}
	if samples == 0 || samples > 25 {
		t.Fatalf("grouping wrong: %d samples from 100 packets (want ~16)", samples)
	}
}

func TestTrendlineDetectsOveruse(t *testing.T) {
	e := NewTrendlineEstimator()
	now := time.Duration(0)
	// Steadily growing one-way delay: +2 ms per sample.
	sig := SignalNormal
	for i := 0; i < 60; i++ {
		now += 5 * ms
		sig = e.Update(2*ms, now)
	}
	if sig != SignalOveruse {
		t.Fatalf("monotone delay growth should signal overuse, got %v", sig)
	}
}

func TestTrendlineStableIsNormal(t *testing.T) {
	e := NewTrendlineEstimator()
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		now += 5 * ms
		d := time.Duration(0)
		if i%2 == 0 {
			d = ms / 10
		} else {
			d = -ms / 10
		}
		if sig := e.Update(d, now); sig == SignalOveruse {
			t.Fatalf("jittery-but-stable delay flagged overuse at sample %d", i)
		}
	}
}

func TestTrendlineDetectsUnderuse(t *testing.T) {
	e := NewTrendlineEstimator()
	now := time.Duration(0)
	// First build a queue, then drain it sharply.
	for i := 0; i < 40; i++ {
		now += 5 * ms
		e.Update(2*ms, now)
	}
	var sig Signal
	for i := 0; i < 40; i++ {
		now += 5 * ms
		sig = e.Update(-4*ms, now)
	}
	if sig != SignalUnderuse && sig != SignalNormal {
		t.Fatalf("draining queue should not be overuse, got %v", sig)
	}
}

func TestAIMDDecreaseOnOveruse(t *testing.T) {
	a := NewAIMD(2_000_000, 100_000, 10_000_000)
	now := time.Duration(0)
	rate := a.Update(SignalOveruse, 1_800_000, now)
	want := 0.85 * 1_800_000
	if rate != want {
		t.Fatalf("rate after overuse = %v, want %v", rate, want)
	}
}

func TestAIMDIncreaseOnNormal(t *testing.T) {
	a := NewAIMD(1_000_000, 100_000, 10_000_000)
	now := time.Duration(0)
	start := a.Rate()
	for i := 0; i < 10; i++ {
		now += 100 * ms
		a.Update(SignalNormal, 950_000*2, now) // plenty of incoming headroom
	}
	if a.Rate() <= start {
		t.Fatalf("normal signal should grow the rate: %v -> %v", start, a.Rate())
	}
}

func TestAIMDHoldOnUnderuse(t *testing.T) {
	a := NewAIMD(1_000_000, 100_000, 10_000_000)
	now := 100 * ms
	a.Update(SignalNormal, 2_000_000, now)
	r := a.Rate()
	now += 100 * ms
	if got := a.Update(SignalUnderuse, 2_000_000, now); got != r {
		t.Fatalf("underuse should hold: %v -> %v", r, got)
	}
}

func TestAIMDBoundedByIncoming(t *testing.T) {
	// Growth stops at 1.5x the measured incoming rate.
	a := NewAIMD(1_200_000, 100_000, 50_000_000)
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		now += 100 * ms
		a.Update(SignalNormal, 1_000_000, now)
	}
	if a.Rate() > 1.5*1_000_000 {
		t.Fatalf("rate %v should be capped at 1.5x incoming", a.Rate())
	}
}

func TestAIMDCapNeverCutsStandingEstimate(t *testing.T) {
	// The cap is growth-limiting only: a standing estimate above
	// 1.5x incoming is held, not slashed — a transient arrival pause
	// drains the rate meter without any congestion, and cutting the
	// estimate to the momentary trickle would be a spurious collapse.
	// Genuine congestion decreases through the overuse path instead.
	a := NewAIMD(5_000_000, 100_000, 50_000_000)
	now := 100 * ms
	a.Update(SignalNormal, 1_000_000, now)
	if r := a.Rate(); r < 5_000_000 {
		t.Fatalf("normal signal with a drained meter cut the rate: %v", r)
	}
	if r := a.Rate(); r > 5_000_000 {
		t.Fatalf("rate %v grew past the standing estimate while above the cap", r)
	}
	now += 100 * ms
	a.Update(SignalOveruse, 1_000_000, now)
	if r := a.Rate(); r != 0.85*1_000_000 {
		t.Fatalf("overuse should still decrease to 85%% of incoming: got %v", r)
	}
}

func TestAIMDRespectsBounds(t *testing.T) {
	a := NewAIMD(200_000, 150_000, 300_000)
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += 100 * ms
		a.Update(SignalOveruse, 10_000, now)
	}
	if a.Rate() < 150_000 {
		t.Fatalf("rate %v below floor", a.Rate())
	}
	for i := 0; i < 200; i++ {
		now += 100 * ms
		a.Update(SignalNormal, 10_000_000, now)
	}
	if a.Rate() > 300_000 {
		t.Fatalf("rate %v above ceiling", a.Rate())
	}
}

func TestLossBased(t *testing.T) {
	l := NewLossBased(1_000_000, 100_000, 10_000_000)
	l.OnReport(0.20) // heavy loss: 1 - 0.1 = 0.9
	if got := l.Rate(); got != 900_000 {
		t.Fatalf("rate after 20%% loss = %v, want 900000", got)
	}
	l.OnReport(0.05) // between 2% and 10%: hold
	if got := l.Rate(); got != 900_000 {
		t.Fatalf("rate after 5%% loss = %v, want hold at 900000", got)
	}
	l.OnReport(0.0) // probe up 5%
	if got := l.Rate(); got != 945_000 {
		t.Fatalf("rate after 0%% loss = %v, want 945000", got)
	}
}

func TestControllerTakesMin(t *testing.T) {
	c := NewController(2_000_000, 100_000, 10_000_000)
	c.OnREMB(1_200_000)
	if got := c.PacingRate(); got != 1_200_000 {
		t.Fatalf("pacing = %v, want REMB min", got)
	}
	// Loss hammers the sender estimate below REMB.
	for i := 0; i < 10; i++ {
		c.OnReceiverReport(0.5)
	}
	if got := c.PacingRate(); got >= 1_200_000 {
		t.Fatalf("pacing = %v, want loss-based min", got)
	}
}

func TestRateMeter(t *testing.T) {
	m := NewRateMeter(time.Second)
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		m.Add(now, 12500) // 12500 B per 100 ms = 1 Mbps
		now += 100 * ms
	}
	got := m.BitrateBps(now)
	if got < 900_000 || got > 1_200_000 {
		t.Fatalf("rate = %v, want ~1 Mbps", got)
	}
	// After the window passes with no traffic the rate collapses.
	if got := m.BitrateBps(now + 2*time.Second); got != 0 {
		t.Fatalf("stale rate = %v, want 0", got)
	}
}

func TestPacerPriorityOrder(t *testing.T) {
	p := NewPacer[string](8_000_000)
	p.Push(Item[string]{Class: ClassVideo, Size: 1200, Payload: "v"})
	p.Push(Item[string]{Class: ClassAudio, Size: 160, Payload: "a"})
	p.Push(Item[string]{Class: ClassVideo, Size: 1200, Gain: IFramePacingGain, Payload: "i"})
	p.Push(Item[string]{Class: ClassRTX, Size: 1200, Payload: "r"})
	var order []string
	emit := func(it Item[string]) { order = append(order, it.Payload) }
	p.Drain(time.Second, emit)
	p.Drain(time.Second+10*ms, emit) // second tick pays off the budget deficit
	// Audio first, then retransmissions; video stays FIFO (the I-frame
	// packet does NOT jump ahead of the earlier video packet).
	want := []string{"a", "r", "v", "i"}
	if len(order) != 4 {
		t.Fatalf("drained %d items: %v", len(order), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}

	// The same order through a deep backlog, where pops run ahead of a
	// dead prefix and the queues compact under interleaved pushes: every
	// drain emits all queued audio, then all RTX, then video, each class in
	// push order.
	q := NewPacer[[2]int](100e6)
	next, last := [numClasses]int{}, [numClasses]int{}
	now := time.Duration(0)
	emitted, pushed, deepest := 0, 0, 0
	for round := 0; round < 400; round++ {
		for k := 0; k < 7; k++ {
			c := Class((round + k) % int(numClasses))
			next[c]++
			if pos := q.NextPos(c); pos != uint64(next[c]) {
				t.Fatalf("round %d: class %d's push number %d takes place %d", round, c, next[c], pos)
			}
			q.Push(Item[[2]int]{Class: c, Size: 1200, Payload: [2]int{int(c), next[c]}})
			pushed++
		}
		deepest = max(deepest, q.QueueLen())
		now += 300 * time.Microsecond // 3750 B of budget: the backlog grows by ~4 a round
		if round >= 300 {
			now += 2 * ms // and drains at the end
		}
		lastClass := ClassAudio
		q.Drain(now, func(it Item[[2]int]) {
			c, seq := Class(it.Payload[0]), it.Payload[1]
			if c < lastClass {
				t.Fatalf("round %d: class %d emitted after class %d", round, c, lastClass)
			}
			if seq != last[c]+1 {
				t.Fatalf("round %d: class %d emitted %d after %d", round, c, seq, last[c])
			}
			if !q.Passed(c, uint64(seq)) || q.Passed(c, uint64(seq)+1) {
				t.Fatalf("round %d: class %d emitted %d: Passed(%d) = %v, Passed(%d) = %v", round, c, seq, seq, q.Passed(c, uint64(seq)), seq+1, q.Passed(c, uint64(seq)+1))
			}
			lastClass, last[c] = c, seq
			emitted++
		})
	}
	if q.QueueLen() != pushed-emitted || q.QueueBytes() != 1200*(pushed-emitted) {
		t.Fatalf("accounting: %d items / %d B queued, want %d / %d", q.QueueLen(), q.QueueBytes(), pushed-emitted, 1200*(pushed-emitted))
	}
	if emitted < pushed/2 || deepest < 1000 {
		t.Fatalf("emitted %d of %d, deepest backlog %d: the case wants a deep backlog that also drains", emitted, pushed, deepest)
	}
}

// TestPacerRateLimits: a permanently backlogged pacer emits rate × T,
// give or take one burst, whether it is driven at the times Drain asks
// for or on a fixed tick no longer than BurstWindow.
func TestPacerRateLimits(t *testing.T) {
	const size = 1200
	asked := time.Duration(0)
	for _, tc := range []struct {
		name    string
		rateBps float64
		tick    time.Duration // asked: drain again when Drain says
		T       time.Duration
	}{
		{"64k/asked", 64e3, asked, 60 * time.Second},
		{"64k/2ms", 64e3, 2 * ms, 60 * time.Second},
		{"1M/5ms", 1e6, 5 * ms, time.Second}, // a coarser tick, while rate × tick stays under the burst cap
		{"8M/asked", 8e6, asked, 2 * time.Second},
		{"8M/2ms", 8e6, 2 * ms, 2 * time.Second},
		{"100M/asked", 100e6, asked, time.Second},
		{"100M/2ms", 100e6, 2 * ms, time.Second},
		{"1G/asked", 1e9, asked, 200 * ms},
		{"1G/2ms", 1e9, 2 * ms, 200 * ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPacer[struct{}](tc.rateBps)
			burst := max(minBurst, tc.rateBps/8*BurstWindow.Seconds())
			sent, drains := 0, 0
			emit := func(Item[struct{}]) { sent += size }
			for now := time.Duration(0); now <= tc.T; drains++ {
				for p.QueueLen() < int(burst)/size+2 {
					p.Push(Item[struct{}]{Class: ClassVideo, Size: size})
				}
				wait := p.Drain(now, emit)
				if wait <= 0 {
					t.Fatalf("backlogged Drain at %v returned wait %v", now, wait)
				}
				if tc.tick != asked {
					wait = tc.tick
				}
				now += wait
			}
			want := tc.rateBps / 8 * tc.T.Seconds()
			if d := float64(sent) - want; d < -burst-size || d > burst+size+idleBank {
				t.Fatalf("sent %d B in %v over %d drains, want %.0f ± one burst (%.0f B)", sent, tc.T, drains, want, burst)
			}
			if tc.tick == asked && drains > sent/size+2 {
				t.Fatalf("%d drains for %d packets: Drain asks to come back before the deficit is paid", drains, sent/size)
			}
		})
	}
}

func TestPacerIFrameGain(t *testing.T) {
	run := func(gain float64) int {
		p := NewPacer[struct{}](1_000_000)
		for i := 0; i < 1000; i++ {
			p.Push(Item[struct{}]{Class: ClassVideo, Gain: gain, Size: 1250})
		}
		sent := 0
		now := time.Duration(0)
		p.Drain(now, func(Item[struct{}]) { sent++ })
		for i := 0; i < 100; i++ {
			now += 5 * ms
			p.Drain(now, func(Item[struct{}]) { sent++ })
		}
		return sent
	}
	video := run(0)
	iframe := run(IFramePacingGain)
	ratio := float64(iframe) / float64(video)
	if ratio < 1.3 || ratio > 1.7 {
		t.Fatalf("I-frame pacing gain ratio = %v, want ~1.5", ratio)
	}
}

// TestPacerNoIdleBurstBanking: however long a pacer idles it banks no
// more than its burst cap, an emptied queue keeps one MTU — and that MTU
// is there for the next arrival, which leaves at the instant it came.
func TestPacerNoIdleBurstBanking(t *testing.T) {
	for _, rateBps := range []float64{64e3, 8e6, 100e6, 1e9} {
		p := NewPacer[struct{}](rateBps)
		sent := 0
		emit := func(Item[struct{}]) { sent += 1200 }
		p.Drain(0, emit)
		for i := 0; i < 1000; i++ {
			p.Push(Item[struct{}]{Class: ClassVideo, Size: 1200})
		}
		p.Drain(time.Hour, emit)
		if burst := max(minBurst, rateBps/8*BurstWindow.Seconds()); float64(sent) > burst+1200 {
			t.Fatalf("%g bit/s: an idle hour released %d B at once, burst cap %.0f B", rateBps, sent, burst)
		}
		if rateBps == 8e6 && sent > 15*1200 {
			t.Fatalf("idle 8 Mbit/s pacer released %d packets at once", sent/1200)
		}
	}

	// Work conservation: an idle pacer sends an arrival at once, and goes
	// on doing so while the one-MTU bank lasts.
	p := NewPacer[int](8e6)
	var got []int
	emit := func(it Item[int]) { got = append(got, it.Payload) }
	now := time.Hour
	for i := 1; i <= 2; i++ {
		p.Push(Item[int]{Class: ClassVideo, Size: 1200, Payload: i})
		if wait := p.Drain(now, emit); wait != 0 || len(got) != i || got[i-1] != i {
			t.Fatalf("arrival %d on an idle pacer: emitted %v, wait %v; want it sent at once", i, got, wait)
		}
	}
	// The third arrival at the same instant finds the bank spent: it waits
	// exactly for the deficit (2400 B sent on 1500 B banked, at 1 B/µs).
	p.Push(Item[int]{Class: ClassVideo, Size: 1200, Payload: 3})
	wait := p.Drain(now, emit)
	if len(got) != 2 || wait < 900*time.Microsecond || wait > 901*time.Microsecond {
		t.Fatalf("third arrival: emitted %v, wait %v; want it held for the 900 µs deficit", got, wait)
	}
	if p.Drain(now+wait-2, emit); len(got) != 2 {
		t.Fatalf("packet left %v before its deficit was paid", 2*time.Nanosecond)
	}
	if w := p.Drain(now+wait, emit); len(got) != 3 || w != 0 {
		t.Fatalf("deficit paid: emitted %v, wait %v; want the third packet out", got, w)
	}
}

func TestPacerQueueDelayAndDrop(t *testing.T) {
	p := NewPacer[struct{}](1_000_000)
	for i := 0; i < 100; i++ {
		p.Push(Item[struct{}]{Class: ClassVideo, Size: 1250})
	}
	// 125000 B at 125000 B/s = 1 s.
	if d := p.QueueDelay(); d < 900*ms || d > 1100*ms {
		t.Fatalf("queue delay = %v, want ~1s", d)
	}
	dropped := p.DropClass(ClassVideo, nil)
	if dropped != 125000 {
		t.Fatalf("dropped %d bytes", dropped)
	}
	if p.QueueBytes() != 0 || p.QueueLen() != 0 {
		t.Fatal("queue not empty after drop")
	}
	if !p.Passed(ClassVideo, 100) || p.NextPos(ClassVideo) != 101 {
		t.Fatalf("dropped items have left the queue: Passed(100) = %v, next place %d", p.Passed(ClassVideo, 100), p.NextPos(ClassVideo))
	}
}

func TestPacerMinRateFloor(t *testing.T) {
	p := NewPacer[struct{}](1_000_000)
	p.SetRate(0)
	if p.Rate() < 10_000 {
		t.Fatalf("rate floor not applied: %v", p.Rate())
	}
}
