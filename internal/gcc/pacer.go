package gcc

import "time"

// Class orders pacer traffic. Lower values drain first: audio beats
// everything (head-of-line blocking avoidance, §5.2) and retransmissions
// beat fresh video (§5.1 footnote: "retransmitted packets have a higher
// sending priority than the packets in the send queue"). Video keeps
// FIFO order — I frames are not reordered ahead of older packets (that
// would punch sequence holes at receivers); they get a pacing *gain*
// instead.
type Class int

// Pacer traffic classes, highest priority first.
const (
	ClassAudio Class = iota
	ClassRTX
	ClassVideo
	numClasses
)

// IFramePacingGain is the pacing gain applied to I-frame packets: their
// bytes are charged at 1/1.5 of their size so the large I frames drain
// the queue quickly without reordering it (§5.2 "Priority-Aware Data
// Sending", citing WebRTC's pacing gain).
const IFramePacingGain = 1.5

// Item is one queued packet. The payload type is a parameter so hot
// callers queue their packet struct directly — no interface boxing, no
// per-Push allocation (the node queues ~one item per subscriber per
// ingress packet).
type Item[T any] struct {
	Class Class
	Size  int // wire size in bytes
	// Gain is the pacing gain: the packet is charged Size/Gain against
	// the budget (0 or 1 = no gain). I frames use IFramePacingGain; GoP
	// cache primes use a larger catch-up gain so a joining subscriber
	// receives the backlog quickly without starving live packets behind
	// a slow drip.
	Gain float64
	// Payload is opaque to the pacer (the node stores the marshaled
	// packet and destination here).
	Payload T
}

// BurstWindow is the longest a driver may leave a backlogged pacer
// between two drains and still carry the configured rate: the budget a
// pacer accrues is capped at what its rate sends in this long (and never
// below minBurst). The node's deficit timer never sleeps longer.
const BurstWindow = 2 * time.Millisecond

// minBurst (~10 MTUs) is the burst cap of a slow link, idleBank (one MTU)
// what an emptied queue may keep for the next arrival.
const (
	minBurst = 12_000
	idleBank = 1500
)

// classQueue is one class's FIFO: a slice with a head index, so a pop is
// O(1) whatever the backlog.
type classQueue[T any] struct {
	items []Item[T]
	head  int
	gone  uint64 // items that have left, sent or dropped, over the queue's life
}

func (q *classQueue[T]) len() int { return len(q.items) - q.head }

// pop removes the head. The slice is rewound when it empties and
// compacted once the dead prefix passes half of it, so it stays reusable
// (no allocation in steady state) at an amortized O(1) per pop.
func (q *classQueue[T]) pop() Item[T] {
	it := q.items[q.head]
	q.items[q.head] = Item[T]{} // drop payload references
	q.head++
	q.gone++
	switch {
	case q.head == len(q.items):
		q.items, q.head = q.items[:0], 0
	case q.head > len(q.items)/2:
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return it
}

// Pacer shapes fast-path sending to the rate the slow path's GCC
// controller decides. It is a pull-based token bucket: the node calls
// Drain when a packet arrives and sends whatever the budget allows, in
// class order; Drain says when to come back for what is left.
type Pacer[T any] struct {
	queues     [numClasses]classQueue[T]
	queueLen   int
	queueBytes int

	rateBps   float64
	budget    float64 // bytes available to send now
	lastDrain time.Duration
	haveDrain bool

	// maxBurst caps accumulated budget so an idle period doesn't produce
	// a line-rate burst: max(minBurst, rate × BurstWindow).
	maxBurst float64
}

// NewPacer returns a pacer at the given starting rate.
func NewPacer[T any](rateBps float64) *Pacer[T] {
	p := &Pacer[T]{}
	p.SetRate(rateBps)
	return p
}

// SetRate updates the pacing rate (bps).
func (p *Pacer[T]) SetRate(bps float64) {
	if bps < 10_000 {
		bps = 10_000
	}
	p.rateBps = bps
	p.maxBurst = max(minBurst, bps/8*BurstWindow.Seconds())
}

// Rate returns the current pacing rate.
func (p *Pacer[T]) Rate() float64 { return p.rateBps }

// Push enqueues an item.
func (p *Pacer[T]) Push(it Item[T]) {
	q := &p.queues[it.Class]
	q.items = append(q.items, it)
	p.queueLen++
	p.queueBytes += it.Size
}

// NextPos returns the place the next item pushed to class c takes in that
// class's FIFO, counted from 1 over the pacer's life; Passed reports
// whether the item at pos has left the queue. (An item DropClassFunc
// picks out from behind pos counts as gone from in front of it.)
func (p *Pacer[T]) NextPos(c Class) uint64 {
	q := &p.queues[c]
	return q.gone + uint64(q.len()) + 1
}

// Passed: see NextPos.
func (p *Pacer[T]) Passed(c Class, pos uint64) bool { return p.queues[c].gone >= pos }

// QueueBytes returns the total queued bytes (all classes).
func (p *Pacer[T]) QueueBytes() int { return p.queueBytes }

// QueueLen returns the number of queued items.
func (p *Pacer[T]) QueueLen() int { return p.queueLen }

// QueueDelay estimates how long the current queue takes to drain at the
// current rate — the signal the consumer's proactive frame dropping
// compares against its threshold (§5.2).
func (p *Pacer[T]) QueueDelay() time.Duration {
	if p.rateBps <= 0 {
		return 0
	}
	secs := float64(p.queueBytes*8) / p.rateBps
	return time.Duration(secs * float64(time.Second))
}

// DropClassFunc removes the queued items of the given class for which
// drop returns true, returning how many bytes were removed (selective
// proactive dropping). The callback owns releasing any pooled buffer
// references of items it drops.
func (p *Pacer[T]) DropClassFunc(c Class, drop func(Item[T]) bool) int {
	dropped := 0
	q := &p.queues[c]
	kept := q.items[:0]
	for _, it := range q.items[q.head:] {
		if drop(it) {
			dropped += it.Size
		} else {
			kept = append(kept, it)
		}
	}
	clear(q.items[len(kept):]) // drop payload references
	q.gone += uint64(q.len() - len(kept))
	p.queueLen -= q.len() - len(kept)
	q.items, q.head = kept, 0
	p.queueBytes -= dropped
	return dropped
}

// DropClass removes all queued items of the given class and returns how
// many bytes were dropped (used by proactive frame dropping). onDrop,
// if non-nil, sees every dropped item — payloads that hold pooled
// buffer references release them there.
func (p *Pacer[T]) DropClass(c Class, onDrop func(Item[T])) int {
	dropped := 0
	q := &p.queues[c]
	for _, it := range q.items[q.head:] {
		dropped += it.Size
		if onDrop != nil {
			onDrop(it)
		}
	}
	clear(q.items) // drop payload references
	q.gone += uint64(q.len())
	p.queueLen -= q.len()
	q.items, q.head = q.items[:0], 0
	p.queueBytes -= dropped
	return dropped
}

// Drain accrues budget for the elapsed time and emits items in priority
// order while budget remains. I-frame packets are charged size/1.5
// (pacing gain). A packet may drive the budget negative; the deficit is
// paid back before the next send. Drain returns how long from now the
// deficit takes to pay — when to drain again — or 0 when nothing is left
// queued.
func (p *Pacer[T]) Drain(now time.Duration, emit func(Item[T])) time.Duration {
	if !p.haveDrain {
		p.haveDrain = true
		p.lastDrain = now
		// Allow an initial burst of one MTU so the first packet is not
		// delayed by budget accrual.
		p.budget = idleBank
	}
	elapsed := now - p.lastDrain
	p.lastDrain = now
	p.budget = min(p.budget+p.rateBps/8*elapsed.Seconds(), p.maxBurst)
	for p.budget > 0 {
		it, ok := p.pop()
		if !ok {
			// An empty queue must not bank budget for a later burst.
			p.budget = min(p.budget, idleBank)
			return 0
		}
		charge := float64(it.Size)
		if it.Gain > 1 {
			charge /= it.Gain
		}
		p.budget -= charge
		emit(it)
	}
	if p.queueLen == 0 {
		return 0
	}
	// +1: the budget must end up above zero, not at it.
	return time.Duration(-p.budget/(p.rateBps/8)*float64(time.Second)) + 1
}

func (p *Pacer[T]) pop() (Item[T], bool) {
	if p.queueLen > 0 {
		for c := range p.queues {
			if q := &p.queues[c]; q.len() > 0 {
				it := q.pop()
				p.queueLen--
				p.queueBytes -= it.Size
				return it, true
			}
		}
	}
	var zero Item[T]
	return zero, false
}
