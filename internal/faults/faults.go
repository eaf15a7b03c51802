// Package faults is the deterministic fault-injection plane: a seedable
// Plan of link flaps, packet loss (Bernoulli and Gilbert-Elliott burst),
// TPP-section corruption, serialization jitter and switch halts, scheduled
// through the simulation engine itself so every fault is an ordinary
// deterministic event. The paper's premise is that TPPs are unreliable by
// design (§2, §5 of the extended version): this plane is how the repo makes
// links actually fail so the minions' degradation stories can be tested.
//
// Determinism contract: a Plan carries its own Seed. Every fault target
// (one link, one switch) owns a private RNG stream derived from the Plan
// seed and the target's stable index, and schedules its fault events on the
// engine that owns the target's shard. No mutable state is shared across
// shards — the aggregate counters are commutative atomic sums — so a given
// (topology, workload, plan, seed) tuple replays byte-identically on one
// shard or many. Reproducible scripted
// chaos in the spirit of MoonGen's seedable traffic scripting
// (arXiv:1410.3322).
//
// Zero-cost when disarmed: the hot path's only overhead is the nil TxFault
// check links already perform; an unarmed network schedules no events and
// allocates nothing.
package faults

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"minions/internal/device"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/stream"
)

// FlapSpec describes random link down/up flapping with exponentially
// distributed time-to-failure and time-to-repair.
type FlapSpec struct {
	MTTF sim.Time // mean up time before a failure
	MTTR sim.Time // mean outage duration
	// Links restricts flapping to these link indices (creation order, as in
	// topo.Network.Links). Nil means every armed link flaps.
	Links []int
}

// LossSpec describes per-packet loss at the transmit path. With only Rate
// set it is Bernoulli loss; setting GoodToBad enables the two-state
// Gilbert-Elliott burst model — per-packet state transitions with loss
// probability Rate in the good state and BadRate in the bad (burst) state.
type LossSpec struct {
	Rate      float64 // loss probability (good state)
	GoodToBad float64 // per-packet P(good → bad); 0 disables the GE chain
	BadToGood float64 // per-packet P(bad → good)
	BadRate   float64 // loss probability in the bad state
	Links     []int   // nil = all armed links
}

// CorruptSpec describes TPP-section corruption: with probability Rate per
// TPP-carrying packet, one packet-memory word is bit-flipped. Headers and
// instructions are never touched (a hardware CRC would discard those); the
// stale checksum makes the corruption observable to end-host verification
// and tppdump while the in-network executors — which skip verification on
// the fast path, as the paper's switches do — run the garbage.
type CorruptSpec struct {
	Rate  float64
	Links []int
}

// JitterSpec describes added serialization delay: with probability Rate per
// packet, a uniform stall in (0, Max] stretches the packet's serialization.
// Jitter is modeled at serialization — not propagation — so link delivery
// order is preserved, which the link's inflight ring requires.
type JitterSpec struct {
	Rate  float64
	Max   sim.Time
	Links []int
}

// HaltSpec describes random switch halt/restart cycles, exponentially
// distributed like link flaps. A halted switch drops all ingress traffic;
// its forwarding state survives the outage.
type HaltSpec struct {
	MTTF     sim.Time
	MTTR     sim.Time
	Switches []int // nil = all armed switches
}

// EventKind classifies fault-plane events.
type EventKind uint8

const (
	LinkDown EventKind = iota
	LinkUp
	BurstStart // Gilbert-Elliott bad-state entry
	BurstEnd
	SwitchHalt
	SwitchRestart
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case BurstStart:
		return "burst-start"
	case BurstEnd:
		return "burst-end"
	case SwitchHalt:
		return "switch-halt"
	case SwitchRestart:
		return "switch-restart"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one fault-plane occurrence: a state change of a link or switch.
// Link and Switch are creation-order indices; the unused one is -1.
type Event struct {
	At     sim.Time
	Kind   EventKind
	Link   int
	Switch int
	Node   link.NodeID // the affected switch's address, 0 for link events
}

// Plan is a complete, seedable fault schedule. The zero value (or a nil
// *Plan) means "no faults". Script entries fire at fixed times; the
// stochastic specs draw from per-target streams seeded by Seed. Horizon,
// when set, ends the chaos: no stochastic fault begins at or after it, and
// every downed link and halted switch is restored by then — the recovery
// phase chaos scenarios measure begins at Horizon. Without a Horizon the
// Flap/Halt machines reschedule forever, so a drain-style Run never
// terminates; bound such runs with RunUntil or call Injector.Disarm.
type Plan struct {
	Seed    int64
	Horizon sim.Time

	Flap    *FlapSpec
	Loss    *LossSpec
	Corrupt *CorruptSpec
	Jitter  *JitterSpec
	Halt    *HaltSpec

	// Script is a list of fixed-time events (LinkDown/LinkUp/SwitchHalt/
	// SwitchRestart only). Scripted state changes do not chain — combining
	// Script and a stochastic Flap/Halt spec on the same target makes the
	// two fight over its state; use disjoint targets.
	Script []Event
}

// Counts aggregates fault activity over a run. All fields are commutative
// sums, safe to accumulate from every shard.
type Counts struct {
	LinkDowns, LinkUps     uint64
	Losses                 uint64 // packets dropped by Loss
	Corruptions            uint64
	Stalls                 uint64 // packets stretched by Jitter
	Halts, Restarts        uint64
	BurstStarts, BurstEnds uint64
	ScriptFired            uint64
}

// Injector arms a Plan onto a concrete set of links and switches. One
// Injector serves one run; Arm exactly once.
type Injector struct {
	plan  Plan
	armed bool

	links    []*linkFault
	switches []*switchFault

	events stream.Stream[Event]

	// Counters are atomics: shards publish concurrently.
	linkDowns, linkUps     atomic.Uint64
	losses                 atomic.Uint64
	corruptions            atomic.Uint64
	stalls                 atomic.Uint64
	halts, restarts        atomic.Uint64
	burstStarts, burstEnds atomic.Uint64
	scriptFired            atomic.Uint64
}

// NewInjector creates an injector for plan (copied; later mutation of the
// caller's Plan has no effect).
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan}
}

// Plan returns the armed plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// Events returns the fault-event stream. Events publish on the shard that
// owns the affected target, so subscribe only on single-shard runs unless
// the subscriber does its own locking; event order across shards is not
// deterministic (the Counts are).
func (inj *Injector) Events() *stream.Stream[Event] { return &inj.events }

// Counts snapshots the aggregate fault counters.
func (inj *Injector) Counts() Counts {
	return Counts{
		LinkDowns:   inj.linkDowns.Load(),
		LinkUps:     inj.linkUps.Load(),
		Losses:      inj.losses.Load(),
		Corruptions: inj.corruptions.Load(),
		Stalls:      inj.stalls.Load(),
		Halts:       inj.halts.Load(),
		Restarts:    inj.restarts.Load(),
		BurstStarts: inj.burstStarts.Load(),
		BurstEnds:   inj.burstEnds.Load(),
		ScriptFired: inj.scriptFired.Load(),
	}
}

// targetRNG derives the private RNG stream for target index idx of class
// class (0 links, 1 switches). SplitMix-style mixing keeps the streams
// distinct for any plan seed.
func (inj *Injector) targetRNG(class, idx int) *rand.Rand {
	s := inj.plan.Seed ^ (int64(idx+1)+int64(class)<<32)*-0x61C8864680B583EB
	return rand.New(rand.NewSource(s))
}

// Arm installs the plan onto the targets: links and switches are addressed
// by slice index, which must match the indices used in the plan's specs and
// script (topology creation order). Arm schedules the initial stochastic
// events and every scripted event, and hooks the transmit path of each link
// a Loss/Corrupt/Jitter spec covers.
func (inj *Injector) Arm(links []*link.Link, switches []*device.Switch) error {
	if inj.armed {
		return fmt.Errorf("faults: injector armed twice")
	}
	inj.armed = true
	p := &inj.plan

	if err := checkIndices("Flap.Links", specLinks(p.Flap), len(links)); err != nil {
		return err
	}
	if p.Loss != nil {
		if err := checkIndices("Loss.Links", p.Loss.Links, len(links)); err != nil {
			return err
		}
	}
	if p.Corrupt != nil {
		if err := checkIndices("Corrupt.Links", p.Corrupt.Links, len(links)); err != nil {
			return err
		}
	}
	if p.Jitter != nil {
		if err := checkIndices("Jitter.Links", p.Jitter.Links, len(links)); err != nil {
			return err
		}
	}
	if p.Halt != nil {
		if err := checkIndices("Halt.Switches", p.Halt.Switches, len(switches)); err != nil {
			return err
		}
	}

	inj.links = make([]*linkFault, len(links))
	for i, l := range links {
		lf := &linkFault{inj: inj, idx: i, l: l}
		inj.links[i] = lf
		needRNG := false
		if p.Flap != nil && applies(i, p.Flap.Links) {
			lf.flap = true
			needRNG = true
		}
		if p.Loss != nil && applies(i, p.Loss.Links) {
			lf.loss = p.Loss
			needRNG = true
		}
		if p.Corrupt != nil && applies(i, p.Corrupt.Links) {
			lf.corrupt = p.Corrupt
			needRNG = true
		}
		if p.Jitter != nil && applies(i, p.Jitter.Links) {
			lf.jitter = p.Jitter
			needRNG = true
		}
		if needRNG {
			lf.rng = inj.targetRNG(0, i)
		}
		if lf.loss != nil || lf.corrupt != nil || lf.jitter != nil {
			l.SetTxFault(lf)
		}
		if lf.flap {
			lf.schedule(inj.expTime(lf.rng, p.Flap.MTTF), argFlapDown)
		}
	}

	inj.switches = make([]*switchFault, len(switches))
	for i, sw := range switches {
		sf := &switchFault{inj: inj, idx: i, sw: sw}
		inj.switches[i] = sf
		if p.Halt != nil && applies(i, p.Halt.Switches) {
			sf.rng = inj.targetRNG(1, i)
			sf.schedule(inj.expTime(sf.rng, p.Halt.MTTF), argHaltDown)
		}
	}

	for _, ev := range p.Script {
		switch ev.Kind {
		case LinkDown, LinkUp:
			if ev.Link < 0 || ev.Link >= len(links) {
				return fmt.Errorf("faults: script link index %d out of range (%d links)", ev.Link, len(links))
			}
			lf := inj.links[ev.Link]
			arg := uint64(argScriptDown)
			if ev.Kind == LinkUp {
				arg = argScriptUp
			}
			lf.l.Engine().Schedule(ev.At, lf, arg)
		case SwitchHalt, SwitchRestart:
			if ev.Switch < 0 || ev.Switch >= len(switches) {
				return fmt.Errorf("faults: script switch index %d out of range (%d switches)", ev.Switch, len(switches))
			}
			sf := inj.switches[ev.Switch]
			arg := uint64(argScriptHalt)
			if ev.Kind == SwitchRestart {
				arg = argScriptRestart
			}
			sf.sw.Engine().Schedule(ev.At, sf, arg)
		default:
			return fmt.Errorf("faults: script event kind %v is not schedulable", ev.Kind)
		}
	}
	return nil
}

// Disarm removes the transmit hooks and restores every downed link and
// halted switch immediately. Pending fault events become no-ops.
func (inj *Injector) Disarm() {
	for _, lf := range inj.links {
		lf.disarmed = true
		lf.l.SetTxFault(nil)
		lf.l.SetDown(false)
	}
	for _, sf := range inj.switches {
		sf.disarmed = true
		sf.sw.SetHalted(false)
	}
}

// expTime draws an exponential interval with the given mean, at least 1 ns.
func (inj *Injector) expTime(rng *rand.Rand, mean sim.Time) sim.Time {
	d := sim.Time(rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// pastHorizon reports whether t is at or beyond the plan's horizon.
func (inj *Injector) pastHorizon(t sim.Time) bool {
	return inj.plan.Horizon > 0 && t >= inj.plan.Horizon
}

func specLinks(f *FlapSpec) []int {
	if f == nil {
		return nil
	}
	return f.Links
}

func applies(idx int, sel []int) bool {
	if sel == nil {
		return true
	}
	for _, s := range sel {
		if s == idx {
			return true
		}
	}
	return false
}

func checkIndices(what string, sel []int, n int) error {
	for _, s := range sel {
		if s < 0 || s >= n {
			return fmt.Errorf("faults: %s index %d out of range (%d targets)", what, s, n)
		}
	}
	return nil
}

// Resident event arguments shared by the per-target machines.
const (
	argFlapDown = iota
	argFlapUp
	argScriptDown
	argScriptUp
	argHaltDown
	argHaltUp
	argScriptHalt
	argScriptRestart
)

// linkFault is one link's fault state machine: a resident sim.Handler for
// flap events and the link's TxFault hook for per-packet loss, corruption
// and jitter. It lives entirely on the link's shard.
type linkFault struct {
	inj *Injector
	idx int
	l   *link.Link
	rng *rand.Rand

	flap     bool
	loss     *LossSpec
	corrupt  *CorruptSpec
	jitter   *JitterSpec
	bad      bool // Gilbert-Elliott burst state
	disarmed bool
}

// schedule arms the next flap transition, clamped by the plan horizon: a
// transition that would land past the horizon is dropped, except that a
// pending up-transition is pulled in to the horizon itself so no link stays
// down into the recovery phase.
func (lf *linkFault) schedule(d sim.Time, arg uint64) {
	eng := lf.l.Engine()
	at := eng.Now() + d
	if lf.inj.plan.Horizon > 0 && at >= lf.inj.plan.Horizon {
		if arg == argFlapUp {
			eng.Schedule(lf.inj.plan.Horizon, lf, arg)
		}
		return
	}
	eng.Schedule(at, lf, arg)
}

// Handle runs the flap machine and scripted link events.
func (lf *linkFault) Handle(arg uint64) {
	if lf.disarmed {
		return
	}
	now := lf.l.Engine().Now()
	switch arg {
	case argFlapDown:
		lf.l.SetDown(true)
		lf.inj.linkDowns.Add(1)
		lf.inj.events.Publish(Event{At: now, Kind: LinkDown, Link: lf.idx, Switch: -1})
		lf.schedule(lf.inj.expTime(lf.rng, lf.inj.plan.Flap.MTTR), argFlapUp)
	case argFlapUp:
		lf.l.SetDown(false)
		lf.inj.linkUps.Add(1)
		lf.inj.events.Publish(Event{At: now, Kind: LinkUp, Link: lf.idx, Switch: -1})
		lf.schedule(lf.inj.expTime(lf.rng, lf.inj.plan.Flap.MTTF), argFlapDown)
	case argScriptDown:
		lf.l.SetDown(true)
		lf.inj.linkDowns.Add(1)
		lf.inj.scriptFired.Add(1)
		lf.inj.events.Publish(Event{At: now, Kind: LinkDown, Link: lf.idx, Switch: -1})
	case argScriptUp:
		lf.l.SetDown(false)
		lf.inj.linkUps.Add(1)
		lf.inj.scriptFired.Add(1)
		lf.inj.events.Publish(Event{At: now, Kind: LinkUp, Link: lf.idx, Switch: -1})
	}
}

// FilterTx implements link.TxFault: the per-packet loss, corruption and
// jitter draws, in that order, from the link's private stream. Inactive
// past the plan horizon.
func (lf *linkFault) FilterTx(p *link.Packet) (drop bool, stall sim.Time) {
	now := lf.l.Engine().Now()
	if lf.inj.pastHorizon(now) {
		return false, 0
	}
	if ls := lf.loss; ls != nil {
		rate := ls.Rate
		if ls.GoodToBad > 0 {
			// Gilbert-Elliott: advance the burst chain once per packet.
			if lf.bad {
				if lf.rng.Float64() < ls.BadToGood {
					lf.bad = false
					lf.inj.burstEnds.Add(1)
					lf.inj.events.Publish(Event{At: now, Kind: BurstEnd, Link: lf.idx, Switch: -1})
				}
			} else if lf.rng.Float64() < ls.GoodToBad {
				lf.bad = true
				lf.inj.burstStarts.Add(1)
				lf.inj.events.Publish(Event{At: now, Kind: BurstStart, Link: lf.idx, Switch: -1})
			}
			if lf.bad {
				rate = ls.BadRate
			}
		}
		if rate > 0 && lf.rng.Float64() < rate {
			lf.inj.losses.Add(1)
			return true, 0
		}
	}
	if c := lf.corrupt; c != nil && p.TPP != nil && lf.rng.Float64() < c.Rate {
		if n := p.TPP.MemWords(); n > 0 {
			w := lf.rng.Intn(n)
			bit := uint32(1) << uint(lf.rng.Intn(32))
			p.TPP.SetWord(w, p.TPP.Word(w)^bit)
			lf.inj.corruptions.Add(1)
		}
	}
	if j := lf.jitter; j != nil && j.Max > 0 && lf.rng.Float64() < j.Rate {
		stall = 1 + sim.Time(lf.rng.Int63n(int64(j.Max)))
		lf.inj.stalls.Add(1)
	}
	return false, stall
}

// switchFault is one switch's halt/restart machine.
type switchFault struct {
	inj      *Injector
	idx      int
	sw       *device.Switch
	rng      *rand.Rand
	disarmed bool
}

func (sf *switchFault) schedule(d sim.Time, arg uint64) {
	eng := sf.sw.Engine()
	at := eng.Now() + d
	if sf.inj.plan.Horizon > 0 && at >= sf.inj.plan.Horizon {
		if arg == argHaltUp {
			eng.Schedule(sf.inj.plan.Horizon, sf, arg)
		}
		return
	}
	eng.Schedule(at, sf, arg)
}

// Handle runs the halt machine and scripted switch events.
func (sf *switchFault) Handle(arg uint64) {
	if sf.disarmed {
		return
	}
	now := sf.sw.Engine().Now()
	node := sf.sw.NodeID()
	switch arg {
	case argHaltDown:
		sf.sw.SetHalted(true)
		sf.inj.halts.Add(1)
		sf.inj.events.Publish(Event{At: now, Kind: SwitchHalt, Link: -1, Switch: sf.idx, Node: node})
		sf.schedule(sf.inj.expTime(sf.rng, sf.inj.plan.Halt.MTTR), argHaltUp)
	case argHaltUp:
		sf.sw.SetHalted(false)
		sf.inj.restarts.Add(1)
		sf.inj.events.Publish(Event{At: now, Kind: SwitchRestart, Link: -1, Switch: sf.idx, Node: node})
		sf.schedule(sf.inj.expTime(sf.rng, sf.inj.plan.Halt.MTTF), argHaltDown)
	case argScriptHalt:
		sf.sw.SetHalted(true)
		sf.inj.halts.Add(1)
		sf.inj.scriptFired.Add(1)
		sf.inj.events.Publish(Event{At: now, Kind: SwitchHalt, Link: -1, Switch: sf.idx, Node: node})
	case argScriptRestart:
		sf.sw.SetHalted(false)
		sf.inj.restarts.Add(1)
		sf.inj.scriptFired.Add(1)
		sf.inj.events.Publish(Event{At: now, Kind: SwitchRestart, Link: -1, Switch: sf.idx, Node: node})
	}
}
