// Package sim is a deterministic discrete-event simulation engine with
// virtual nanosecond time. It replaces the paper's Mininet testbed: the
// protocol and queueing dynamics the evaluation measures (Figures 1, 2, 4)
// run against a virtual clock, so Go's garbage collector and scheduler can
// never distort latencies — the main fidelity risk of wall-clock emulation.
//
// One Engine simulates one topology shard. A ShardGroup runs N engines as an
// asynchronous conservative parallel discrete-event simulation (PDES):
// every shard-crossing link is a lock-free single-producer/single-consumer
// Channel, each shard independently advances to its per-channel lookahead
// horizon (the minimum over incoming channels of the source's published
// clock plus the channel delay) on its own goroutine, and crossings merge
// in a deterministic order that makes the drain instant unobservable — so
// a sharded run produces the same results as a single-engine run of the
// same seed.
//
// Pending events live in a hierarchical timing wheel (wheel.go) with
// amortized O(1) push/pop, firing in (firing time, insertion time,
// sequence) order — the determinism contract every figure in this
// repository pins. The package tests hold the wheel to a binary-heap
// reference and the asynchronous shard engine to a global-epoch reference;
// both references live only in the tests.
package sim

import "math/rand"

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Convenient units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// Seconds converts virtual time to float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Handler is the allocation-free event target: a pre-bound object whose
// Handle method is invoked with the uint64 payload it was scheduled with.
// Scheduling a pointer-typed Handler stores nothing but the two interface
// words and the payload in the event record, so the per-packet events of the
// simulation hot path (transmit-done, delivery, next-send) cost zero heap
// allocations — unlike a closure, which the compiler must box per call site.
type Handler interface {
	Handle(arg uint64)
}

// event is a scheduled event record. Ties at the same firing instant are
// broken by (ins, seq): ins is the virtual time the event was scheduled at
// and seq the engine-local scheduling order. For a lone engine ins is
// redundant (seq order already refines insertion-time order, since seq only
// grows as virtual time advances), so single-engine behavior is unchanged —
// but sharded runs depend on ins: a packet crossing shards is re-scheduled in
// its destination shard whenever the conservative sync permits, long after
// same-instant local events were enqueued, and carrying the original
// emission time as ins restores the tie-break order the lone-engine run
// would have produced. Crossings do not consume local seq numbers; they
// carry an explicit key with the high bit set (see crossKey in channel.go),
// so the firing order is independent of *when* a crossing was drained —
// the property that lets the asynchronous engine drain mailboxes at
// arbitrary instants and still match the barrier engine byte for byte.
type event struct {
	at  Time
	ins Time
	seq uint64
	h   Handler
	arg uint64
}

// scheduler is the engine's pending-event store: pop returns the minimum
// pending event by (at, ins, seq) and peek its firing time without removing
// it. The timing wheel (wheel.go) is the only production implementation;
// the interface is the seam the binary-heap reference of the equivalence
// tests plugs into.
type scheduler interface {
	push(ev event)
	pop() event
	peek() (Time, bool)
	len() int
}

// Engine runs events in virtual-time order.
type Engine struct {
	now     Time
	sched   scheduler
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

// New returns an engine at time zero with a deterministic RNG.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), sched: newTimingWheel()}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// funcHandler adapts a closure to Handler. A func value is pointer-shaped,
// so converting one to the interface allocates nothing beyond the closure.
type funcHandler func()

// Handle calls the closure.
func (f funcHandler) Handle(uint64) { f() }

// At schedules fn at absolute virtual time t (clamped to now). The closure
// API is the convenience layer; per-packet hot paths use Schedule instead.
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, funcHandler(fn), 0) }

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Schedule schedules h.Handle(arg) at absolute virtual time t (clamped to
// now). With a pointer-typed h this allocates nothing, which makes it the
// scheduling primitive for anything that fires per packet.
func (e *Engine) Schedule(t Time, h Handler, arg uint64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.sched.push(event{at: t, ins: e.now, seq: e.seq, h: h, arg: arg})
}

// scheduleCrossing enqueues an event whose insertion stamp is in this
// engine's past: a shard-crossing delivery drained from a mailbox. ins is
// the emission time in the source shard, which slots the event into the
// same tie-break position a lone engine would have given it (where the
// delivery would have been scheduled the instant transmission completed).
//
// Crossings carry an explicit tie-break key (crossKey: high bit set, then
// source shard, channel, FIFO index) instead of consuming a local sequence
// number. Two consequences make the asynchronous conservative engine
// possible: local events always precede crossings at an equal (at, ins) —
// exactly what the barrier engine produced, since a crossing was always
// drained after every same-instant local event had been scheduled — and the
// firing order no longer depends on *when* the crossing was drained, so
// mailboxes can be emptied incrementally at any instant the channel clocks
// permit without perturbing a single local seq number.
func (e *Engine) scheduleCrossing(at, ins Time, key uint64, h Handler, arg uint64) {
	if at < e.now {
		at = e.now
	}
	e.sched.push(event{at: at, ins: ins, seq: key, h: h, arg: arg})
}

// ScheduleAfter schedules h.Handle(arg) d nanoseconds from now.
func (e *Engine) ScheduleAfter(d Time, h Handler, arg uint64) {
	e.Schedule(e.now+d, h, arg)
}

// Stop halts the run loop after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until none remain or Stop is called. It returns the
// number of events processed.
func (e *Engine) Run() int {
	n := 0
	for e.sched.len() > 0 && !e.stopped {
		ev := e.sched.pop()
		e.now = ev.at
		ev.h.Handle(ev.arg)
		n++
	}
	return n
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to the deadline. It returns the number of events processed.
func (e *Engine) RunUntil(deadline Time) int {
	return e.runTo(deadline, true)
}

// runTo processes events up to deadline — inclusive of events at exactly the
// deadline when inclusive is true, exclusive otherwise — then advances the
// clock to the deadline. The exclusive form is the shard-horizon
// primitive: a shard stops just before its horizon instant so that
// crossings delivering at that instant can still be drained and ordered
// among its local events.
func (e *Engine) runTo(deadline Time, inclusive bool) int {
	n := 0
	for !e.stopped {
		at, ok := e.sched.peek()
		if !ok || at > deadline || (!inclusive && at == deadline) {
			break
		}
		ev := e.sched.pop()
		e.now = ev.at
		ev.h.Handle(ev.arg)
		n++
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

// peekTime returns the firing time of the earliest pending event without
// removing it — the "earliest pending <= deadline" query ShardGroup.Run is
// built on. The wheel answers it from its occupancy bitmaps and
// per-bucket minima (no sorting).
func (e *Engine) peekTime() (Time, bool) { return e.sched.peek() }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.sched.len() }
