package sim

// The global-epoch reference engine. Production groups run only the
// asynchronous per-channel-lookahead engine (ShardGroup.RunUntil/Run); the
// classic conservative barrier loop stays here, sequential, as the simple
// reference the shard-sync equivalence tests and fuzzers hold it to: shards
// advance in lockstep windows bounded by the group-wide minimum channel
// delay, with every mailbox drained at each barrier.

// syncMode names a shard synchronization algorithm under test.
type syncMode uint8

const (
	syncChannel syncMode = iota // the production asynchronous engine
	syncEpoch                   // the global-epoch reference below
)

// syncModes lists every algorithm, production first.
var syncModes = []syncMode{syncChannel, syncEpoch}

func (m syncMode) String() string {
	if m == syncEpoch {
		return "epoch"
	}
	return "channel"
}

// runUntil advances g to deadline under the algorithm.
func (m syncMode) runUntil(g *ShardGroup, deadline Time) int {
	if m == syncEpoch {
		return epochRun(g, deadline, true)
	}
	return g.RunUntil(deadline)
}

// run drains g completely under the algorithm.
func (m syncMode) run(g *ShardGroup) int {
	if m == syncEpoch {
		return epochRun(g, 0, false)
	}
	return g.Run()
}

// drainAll empties every channel mailbox into the destination engines: the
// barrier drain. The crossings' keys make any drain order correct.
func drainAll(g *ShardGroup) {
	for _, c := range g.channels {
		if c.q.Avail() > 0 && c.drainInto(g.engines[c.dst]) > 0 {
			g.drains[c.dst].v++
		}
	}
}

// epochRun is the barrier loop: drain, find the earliest pending event,
// run every shard one window past it, repeat. With bounded it stops at
// deadline and leaves every clock there (RunUntil); otherwise it runs until
// nothing is pending and aligns the clocks to the group's end time (Run).
//
// A window may extend a full lookahead past the first pending event:
// nothing can be emitted before that event fires, so no crossing can
// deliver before next+la. A window ending exactly on the deadline still
// runs exclusive — a crossing can deliver at that very instant and must be
// drained before any shard processes it. Only when no crossing can land at
// or before the deadline is the final inclusive window safe.
func epochRun(g *ShardGroup, deadline Time, bounded bool) int {
	la := g.lookahead
	n := 0
	for {
		drainAll(g)
		next, ok := g.earliest()
		if !ok || bounded && next > deadline {
			break
		}
		g.epochs++
		for _, e := range g.engines {
			switch {
			case la == 0 && !bounded:
				n += e.Run()
			case la == 0 || bounded && next+la > deadline:
				n += e.runTo(deadline, true)
			default:
				n += e.runTo(next+la, false)
			}
		}
	}
	if bounded {
		g.advanceAll(deadline)
	} else {
		g.advanceAll(g.Now())
	}
	return n
}
