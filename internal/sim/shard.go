package sim

// Conservative parallel discrete-event simulation (PDES) across topology
// shards. Each shard owns one Engine and all state of the nodes assigned to
// it; shards exchange boundary traffic over directed Channels (one per
// shard-crossing link) whose propagation delays provide the conservative
// lookahead: nothing a shard does at virtual time t can affect another
// shard before t + the channel's delay.
//
// Synchronization is asynchronous and CMB-style: each shard independently
// advances to the minimum over its incoming channels of (source-shard
// published clock + channel delay), draining that channel's lock-free
// mailbox incrementally as it goes. Shards never rendezvous inside a run —
// the only group-wide sync points are the fork and join of the run itself —
// so a shard pair joined only by slow links never throttles the rest.
//
// Every crossing carries a deterministic event key — (high bit, source
// shard, channel, FIFO index) in the seq field, ordered after same-(at,
// ins) local events — so the instant a mailbox happens to be drained is
// unobservable (see Engine.scheduleCrossing and crossKey). Determinism
// therefore does not depend on goroutine scheduling: for a given seed and
// shard count, results are reproducible and match the single-engine run
// except for the measure-zero case of two causally unrelated events in
// different shards colliding on both firing and insertion instants. The
// package tests pin the engine byte-identical to a global-epoch barrier
// reference (shard_ref_test.go).
//
// A parallel run forks one goroutine per shard beyond the first (shard 0
// runs on the caller) and joins them before returning, so no goroutine
// outlives the RunUntil that started it.

import (
	"fmt"
	"runtime"
	"sync"
)

// ShardGroup synchronizes N engines conservatively (see the package
// comment).
type ShardGroup struct {
	// Parallel controls whether runs execute shards on their own
	// goroutines. Determinism holds either way; sequential runs are useful
	// to debug, and they make even the scheduling-sensitive diagnostics in
	// SyncStats deterministic.
	Parallel bool

	engines  []*Engine
	channels []*Channel
	in       [][]*Channel // incoming channels per destination shard
	down     [][]int      // downstream shards per source shard (dedup)

	// lookahead is the group-wide minimum channel delay; minIn is the
	// per-shard minimum incoming delay. Both are maintained by AddChannel.
	lookahead Time
	minIn     []Time

	// clocks are the per-shard published virtual clocks each shard
	// computes its per-channel horizon from; wake holds one sticky wake
	// token per shard (capacity 1, non-blocking sends), so a shard that
	// parks after an upstream publish still observes it.
	clocks []shardClock
	wake   []chan struct{}

	// Fork-join plumbing for parallel runs.
	wg     sync.WaitGroup
	counts []int

	// Sync counters (see SyncStats). epochs is caller-owned; the per-shard
	// arrays are each written by one goroutine at a time.
	epochs    uint64
	crossings []padCounter
	drains    []padCounter
	parks     []padCounter

	// seqDone is scratch for the sequential run loop.
	seqDone []bool
}

// NewShardGroup creates a group over the given engines. Engines are indexed
// by shard number; boundary channels are registered as the topology is
// wired (AddChannel).
func NewShardGroup(engines []*Engine) *ShardGroup {
	if len(engines) > maxKeyShards {
		panic(fmt.Sprintf("sim: %d shards exceed the crossing-key limit (%d)",
			len(engines), maxKeyShards))
	}
	n := len(engines)
	g := &ShardGroup{
		Parallel:  runtime.GOMAXPROCS(0) > 1,
		engines:   engines,
		in:        make([][]*Channel, n),
		down:      make([][]int, n),
		minIn:     make([]Time, n),
		clocks:    make([]shardClock, n),
		wake:      make([]chan struct{}, n),
		counts:    make([]int, n),
		crossings: make([]padCounter, n),
		drains:    make([]padCounter, n),
		parks:     make([]padCounter, n),
		seqDone:   make([]bool, n),
	}
	for i := range g.wake {
		g.wake[i] = make(chan struct{}, 1)
	}
	return g
}

// Engines returns the per-shard engines.
func (g *ShardGroup) Engines() []*Engine { return g.engines }

// AddChannel registers a directed shard-crossing channel with the given
// propagation delay (its lookahead contribution) and returns it; the
// source shard parks crossings with Channel.Send.
func (g *ShardGroup) AddChannel(src, dst int, delay Time) *Channel {
	if src < 0 || src >= len(g.engines) || dst < 0 || dst >= len(g.engines) {
		panic(fmt.Sprintf("sim: boundary channel shards (%d->%d) out of range", src, dst))
	}
	if delay <= 0 {
		panic("sim: boundary channel needs positive propagation delay for lookahead")
	}
	if len(g.channels) >= maxKeyChannels {
		panic(fmt.Sprintf("sim: %d boundary channels exceed the crossing-key limit", len(g.channels)))
	}
	c := &Channel{g: g, idx: len(g.channels), src: src, dst: dst, delay: delay}
	c.q.Init()
	g.channels = append(g.channels, c)
	g.in[dst] = append(g.in[dst], c)
	known := false
	for _, d := range g.down[src] {
		if d == dst {
			known = true
			break
		}
	}
	if !known {
		g.down[src] = append(g.down[src], dst)
	}
	if g.lookahead == 0 || delay < g.lookahead {
		g.lookahead = delay
	}
	if g.minIn[dst] == 0 || delay < g.minIn[dst] {
		g.minIn[dst] = delay
	}
	return c
}

// NumChannels returns the number of registered crossing channels.
func (g *ShardGroup) NumChannels() int { return len(g.channels) }

// Lookahead returns the group-wide conservative window: the minimum
// propagation delay over all boundary channels, or 0 if there are none
// (shards are then fully independent). Cached at registration.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// MinIncomingDelay returns shard's per-channel lookahead floor — the
// minimum delay over its incoming channels — and whether it has any. The
// engine advances each shard at least this far beyond the slowest upstream
// clock, which is never less than the global Lookahead and usually more:
// that inequality is what per-channel lookahead buys over a global window.
func (g *ShardGroup) MinIncomingDelay(shard int) (Time, bool) {
	d := g.minIn[shard]
	return d, d > 0
}

// Stats returns the group's synchronization counters. Call between runs
// (counters are written by shard goroutines while a run is in flight).
func (g *ShardGroup) Stats() SyncStats {
	s := SyncStats{Epochs: g.epochs}
	for i := range g.engines {
		s.Crossings += g.crossings[i].v
		s.Drains += g.drains[i].v
		if g.parks[i].v > s.MaxIdleParks {
			s.MaxIdleParks = g.parks[i].v
		}
	}
	return s
}

// Now returns the group's common run-end time (the maximum engine clock;
// engines share it at the end of every RunUntil).
func (g *ShardGroup) Now() Time {
	var t Time
	for _, e := range g.engines {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Pending returns the number of scheduled events across all shards plus
// crossings parked in channel mailboxes. Call between runs.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.Pending()
	}
	for _, c := range g.channels {
		n += c.q.Avail()
	}
	return n
}

// earliest returns the minimum pending-event time across shard schedulers.
// Stopped engines are skipped: their events will never run (matching
// Engine.Run's prompt return after Stop), so counting them would spin the
// run loop without progress.
func (g *ShardGroup) earliest() (Time, bool) {
	var min Time
	found := false
	for _, e := range g.engines {
		if e.stopped {
			continue
		}
		if t, ok := e.peekTime(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// earliestAnywhere extends earliest with crossings still parked in
// mailboxes (skipping channels into stopped shards, whose deliveries would
// never fire). Call between runs.
func (g *ShardGroup) earliestAnywhere() (Time, bool) {
	min, found := g.earliest()
	for _, c := range g.channels {
		if g.engines[c.dst].stopped {
			continue
		}
		if t, ok := c.earliestPending(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// advanceAll moves every running engine clock forward to t (never
// backward; stopped engines keep their clocks, like Engine.RunUntil).
func (g *ShardGroup) advanceAll(t Time) {
	for _, e := range g.engines {
		if !e.stopped && e.now < t {
			e.now = t
		}
	}
}

// publish raises shard i's published clock to t (monotone) — the value
// downstream shards compute their horizons from. Producer-exclusive per
// shard: only the goroutine running shard i (or the caller between runs)
// calls it.
func (g *ShardGroup) publish(i int, t Time) {
	if Time(g.clocks[i].v.Load()) < t {
		g.clocks[i].v.Store(int64(t))
	}
}

// notify nudges every shard downstream of i: a sticky token per shard, so
// a consumer that checked its horizon before this publish and parks after
// it still wakes. Non-blocking — an already-pending token is enough.
func (g *ShardGroup) notify(i int) {
	for _, d := range g.down[i] {
		select {
		case g.wake[d] <- struct{}{}:
		default:
		}
	}
}

// syncClocks aligns published clocks with the engines before a run: an
// engine advanced outside the group since its last publish would otherwise
// hold its downstream shards to a stale, needlessly short horizon.
func (g *ShardGroup) syncClocks() {
	for i, e := range g.engines {
		g.publish(i, e.now)
	}
}

// step runs one conservative quantum for shard i: snapshot the incoming clocks, drain what is visible, then run to
// the per-channel horizon. It returns events processed, whether the shard
// completed the run (reached the deadline, or stopped), and whether any
// progress was made.
//
// The snapshot MUST precede the drain: a crossing not yet visible to the
// drain was emitted at or after its source's snapshot clock, so its
// delivery time is at or beyond the horizon computed here — running to
// that horizon exclusively can never miss it.
func (g *ShardGroup) step(i int, deadline Time) (n int, done, progress bool) {
	e := g.engines[i]
	if e.stopped {
		// A stopped shard abandons its events, but its clock must still
		// reach the deadline for downstream horizons — publish it, or every
		// shard it feeds would stall forever.
		g.publish(i, deadline)
		g.notify(i)
		return 0, true, true
	}
	horizon := Time(0)
	bounded := false
	for _, c := range g.in[i] {
		t := Time(g.clocks[c.src].v.Load()) + c.delay
		if !bounded || t < horizon {
			horizon, bounded = t, true
		}
	}
	drained := 0
	for _, c := range g.in[i] {
		drained += c.drainInto(e)
	}
	if drained > 0 {
		g.drains[i].v++
		progress = true
	}
	if !bounded || horizon > deadline {
		// No crossing can land at or before the deadline anymore (anything
		// still invisible delivers at or beyond the horizon): finish the
		// run inclusively.
		n = e.runTo(deadline, true)
		g.publish(i, deadline)
		g.notify(i)
		return n, true, true
	}
	if horizon > e.now {
		// Run exclusively to the horizon — a crossing can still deliver at
		// exactly that instant and must be drained first.
		n = e.runTo(horizon, false)
		if e.stopped {
			g.publish(i, deadline)
		} else {
			g.publish(i, horizon)
		}
		g.notify(i)
		return n, e.stopped, true
	}
	return 0, false, progress
}

// asyncWorker is one shard's run loop on a parallel run: quanta until done, parking on the wake token when no upstream clock permits
// progress. Liveness: the globally minimum running clock always has a
// horizon strictly beyond itself (all delays are positive), so some shard
// can always advance, and every publish notifies its downstream shards.
func (g *ShardGroup) asyncWorker(i int, deadline Time) int {
	n := 0
	var idle uint64
	for {
		ev, done, progress := g.step(i, deadline)
		n += ev
		if done {
			break
		}
		if !progress {
			idle++
			<-g.wake[i]
		}
	}
	if idle > 0 {
		g.parks[i].v += idle
	}
	return n
}

// seqAsync is the run loop on the caller's goroutine (Parallel=false):
// deterministic round-robin quanta. A shard that cannot advance counts an
// idle quantum, mirroring the parallel loop's parks.
func (g *ShardGroup) seqAsync(deadline Time) int {
	n, doneCount := 0, 0
	for i := range g.seqDone {
		g.seqDone[i] = false
	}
	for doneCount < len(g.engines) {
		progressed := false
		for i := range g.engines {
			if g.seqDone[i] {
				continue
			}
			ev, done, progress := g.step(i, deadline)
			n += ev
			if done {
				g.seqDone[i] = true
				doneCount++
			} else if !progress {
				g.parks[i].v++
			}
			if done || progress {
				progressed = true
			}
		}
		if !progressed {
			panic("sim: shard group deadlocked (no shard can advance; zero-delay channel?)")
		}
	}
	return n
}

// RunUntil advances the whole group to the deadline: every event with
// timestamp <= deadline in every shard is processed, crossings included,
// and every engine clock ends at the deadline. It returns the number of
// events processed, which matches what a single merged engine would report.
func (g *ShardGroup) RunUntil(deadline Time) int {
	// The fork-join below is the run's only group-wide synchronization
	// point: shards coordinate pairwise through published clocks.
	g.epochs++
	g.syncClocks()
	var n int
	if g.Parallel && len(g.engines) > 1 {
		g.wg.Add(len(g.engines) - 1)
		for i := 1; i < len(g.engines); i++ {
			go func(i int) {
				g.counts[i] = g.asyncWorker(i, deadline)
				g.wg.Done()
			}(i)
		}
		g.counts[0] = g.asyncWorker(0, deadline)
		g.wg.Wait()
		for _, c := range g.counts {
			n += c
		}
	} else {
		n = g.seqAsync(deadline)
	}
	g.advanceAll(deadline)
	return n
}

// Run processes events until no shard has any left and all mailboxes are
// empty. It returns the number of events processed.
func (g *ShardGroup) Run() int {
	// Full drain: rounds of RunUntil to the next pending instant anywhere
	// (scheduled or still parked in a mailbox). Each round is one
	// fork-join; the tail of a drained simulation is short, so the
	// rendezvous cost stays negligible.
	n := 0
	for {
		t, ok := g.earliestAnywhere()
		if !ok {
			break
		}
		n += g.RunUntil(t)
	}
	return n
}
