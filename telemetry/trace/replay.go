package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"minions/internal/core"
	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
)

// ErrSharded reports a capture or replay over hosts that live on more than
// one shard engine. A trace is a single time-ordered stream: capture taps
// on several shard goroutines would interleave one writer, and replay
// re-injects from one engine in capture order.
var ErrSharded = errors.New("trace: capture and replay require a single-shard run")

// ErrTopologyMismatch reports a trace that cannot be replayed into the given
// network: a record names a source or destination node the replay topology
// does not have. Replay errors wrap it, so callers distinguish "wrong
// topology" from I/O or decode failures with errors.Is.
var ErrTopologyMismatch = errors.New("trace does not match replay topology")

// ReplayStats tallies what a replay injected. The counters fill in as the
// simulation runs.
type ReplayStats struct {
	Packets    uint64 // packets injected
	Bytes      uint64 // wire bytes injected
	Standalone uint64 // standalone probes injected

	// StandaloneBytes is the standalone-probe wire bytes injected — the
	// figure the original run's apps derived probe overhead from (e.g.
	// CONGA's ProbeMbps), so a replay reproduces it without the apps
	// running.
	StandaloneBytes uint64
}

// singleEngine returns the engine every host runs on, or ErrSharded.
func singleEngine(hosts []*host.Host) (*sim.Engine, error) {
	if len(hosts) == 0 {
		return nil, nil
	}
	eng := hosts[0].Engine()
	for _, h := range hosts[1:] {
		if h.Engine() != eng {
			return nil, ErrSharded
		}
	}
	return eng, nil
}

// replaySender re-injects recorded transmits as one resident sim.Handler:
// each firing injects exactly one record and schedules the next at its
// recorded timestamp, so replay adds no per-packet closures. hs[i] is the
// source host of recs[i].
type replaySender struct {
	hs    []*host.Host
	eng   *sim.Engine
	recs  []Rec
	stats *ReplayStats
}

// Handle implements sim.Handler: inject record idx, arm record idx+1.
func (r *replaySender) Handle(idx uint64) {
	r.inject(&r.recs[idx], r.hs[idx])
	if next := idx + 1; next < uint64(len(r.recs)) {
		r.eng.Schedule(sim.Time(r.recs[next].At), r, next)
	}
}

func (r *replaySender) inject(rec *Rec, h *host.Host) {
	p := h.NewPacket(link.NodeID(rec.Dst), rec.SrcPort, rec.DstPort, rec.Proto, int(rec.Size)-len(rec.TPP))
	p.PathTag = rec.PathTag
	p.TTL = rec.TTL
	p.Seq = rec.Seq
	p.Ack = rec.Ack
	p.TFlags = rec.TFlags
	p.Standalone = rec.Standalone()
	if len(rec.TPP) > 0 {
		buf := p.SectionBuf(len(rec.TPP))
		copy(buf, rec.TPP)
		p.TPP = core.Section(buf)
		p.Size += len(rec.TPP)
	}
	r.stats.Packets++
	r.stats.Bytes += uint64(p.Size)
	if p.Standalone && p.TPP != nil {
		r.stats.Standalone++
		r.stats.StandaloneBytes += uint64(p.Size)
	}
	h.Inject(p)
}

// Replay decodes the trace in r and schedules every record for
// re-injection at its recorded timestamp from its recorded source host —
// the inverse of Start. Hosts are looked up by node ID; a record whose
// source is not one of hosts, or whose destination is neither one of hosts
// nor listed in extraDests, is an error wrapping ErrTopologyMismatch (the
// trace belongs to a different topology). Destinations need not be hosts —
// debugging probes target switches directly — so callers replaying such
// traces pass the topology's switch NodeIDs as extraDests. Hosts spanning
// more than one shard engine are rejected with ErrSharded.
//
// The returned stats fill in as the simulation runs. Replay injects below
// the shim (no filter interposition), so the replaying hosts need no
// filters, apps or transports: the network — switches, links, TPP
// execution along each path, standalone echoes at destinations — does the
// rest, which is what makes a replayed run reproduce the original packet
// for packet.
func Replay(r io.Reader, extraDests []link.NodeID, hosts ...*host.Host) (*ReplayStats, error) {
	eng, err := singleEngine(hosts)
	if err != nil {
		return nil, err
	}
	recs, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	byID := make(map[link.NodeID]*host.Host, len(hosts))
	for _, h := range hosts {
		byID[h.ID()] = h
	}
	destOK := make(map[link.NodeID]bool, len(extraDests))
	for _, id := range extraDests {
		destOK[id] = true
	}
	for _, rec := range recs {
		if byID[link.NodeID(rec.Src)] == nil {
			return nil, fmt.Errorf("trace: record from node %d, which is not a replay host: %w", rec.Src, ErrTopologyMismatch)
		}
		if dst := link.NodeID(rec.Dst); byID[dst] == nil && !destOK[dst] {
			return nil, fmt.Errorf("trace: record to node %d, which is neither a replay host nor a listed destination: %w", rec.Dst, ErrTopologyMismatch)
		}
	}
	stats := &ReplayStats{}
	if len(recs) == 0 {
		return stats, nil
	}
	// One sender walks the whole trace in capture order, so same-timestamp
	// sends from different hosts re-enter the engine in exactly the order
	// the capturing run emitted them. Per-host senders would re-resolve
	// those ties by scheduling order, and at a drop-tail queue during
	// phase-locked ramp-up that decides which flow's packet is the one
	// dropped.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	hs := make([]*host.Host, len(recs))
	for i := range recs {
		hs[i] = byID[link.NodeID(recs[i].Src)]
	}
	s := &replaySender{hs: hs, eng: eng, recs: recs, stats: stats}
	eng.Schedule(sim.Time(recs[0].At), s, 0)
	return stats, nil
}
