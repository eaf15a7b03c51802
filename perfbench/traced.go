package main

import (
	"fmt"
	"runtime"

	"minions/internal/device"
)

// tracedRun is the per-layer run: the same workload and seed as the
// untraced window base, re-run with slice spans and counter reads, checked
// to give the identical outcome, then the unit-cost drivers at the
// operating point it reported, the ledger, and the slicing, tracing and
// sharding comparisons.
func tracedRun(def *workloadDef, seed int64, slices int, base *windowResult, baseOut outcome, chk *checker, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	f, err := newFabric(def, seed, def.shards, tr)
	if err != nil {
		return nil, err
	}
	w := runWindow(f, slices, true, tr)
	got := f.outcome()
	op := operatingPoint(f, w)
	hosts, switches := fabricIDs(f)
	fwd := newFwdDriver(edgeSwitch(f), hosts, switches)
	hops := float64(w.pktHops())
	a, b := &w.before, &w.after

	put("sim.events_per_pkt_hop", "ratio", float64(b.Events-a.Events)/hops)
	put("sim.pending_p50", "events", percentileInts(w.pending, 50))
	put("sim.pending_max", "events", percentileInts(w.pending, 100))
	linkTx := float64(b.LinkDrops - a.LinkDrops + b.PktHops - a.PktHops)
	put("link.drop_frac", "ratio", float64(b.LinkDrops-a.LinkDrops)/linkTx)
	put("link.queue_p99_pkts", "pkts", float64(op.queueDepth))
	put("link.queue_max_pkts", "pkts", float64(histMax(w.queueHist)))
	put("pool.gets_per_pkt_hop", "ratio", float64(b.PoolGets-a.PoolGets)/hops)
	put("pool.news", "count", float64(b.PoolNews-a.PoolNews))
	put("pool.outstanding_max", "pkts", float64(w.outstandingMax))
	for r := device.DropReason(0); r < device.NumDropReasons; r++ {
		put("device.drops."+dropReasonName(r), "count", float64(b.DropsByReason[r]-a.DropsByReason[r]))
	}
	recs := float64(b.HopRecords - a.HopRecords)
	put("core.insns_per_pkt_hop", "ratio", recs*float64(op.insns)/hops)
	tx := float64(b.HostTx - a.HostTx)
	put("host.tpp_attach_frac", "ratio", float64(b.TPPAttached-a.TPPAttached)/tx)
	put("host.mtu_skips", "count", float64(b.MTUSkips-a.MTUSkips))
	samples := 0.0
	if def.tpp == tppMicroburst {
		samples = recs
	}
	put("apps.samples_per_pkt_hop", "ratio", samples/hops)
	put("telemetry.records", "count", float64(b.Records-a.Records))
	put("telemetry.dropped", "count", float64(b.TelDropped-a.TelDropped))
	put("workload.pkts", "count", float64(b.WorkloadPkt-a.WorkloadPkt))
	put("workload.overflow", "count", float64(b.Overflow-a.Overflow))
	put("workload.attach_s", "s", f.attach.Seconds())
	put("topo.build_s", "s", f.build.Seconds())
	put("topo.routes_s", "s", f.routes.Seconds())
	put("topo.route_bytes_per_node", "B", float64(f.routeBytes)/float64(len(hosts)+len(switches)))
	cross := float64(b.Crossings - a.Crossings)
	put("shard.crossings_per_pkt_hop", "ratio", cross/hops)
	drains := 0.0
	if cross > 0 {
		drains = float64(b.Drains-a.Drains) / cross
	}
	put("shard.drains_per_crossing", "ratio", drains)
	put("shard.idle_parks_max", "count", float64(b.IdleMax))
	put("gc.cycles", "count", float64(base.gcCycles))
	put("gc.pause_ms", "ms", float64(base.gcPauseNs)/1e6)
	put("e2e.allocs_per_pkt_hop", "ratio", float64(base.mallocs)/float64(base.pktHops()))
	put("trace.overhead_frac", "ratio", w.pktHopsPerSec()/base.pktHopsPerSec()-1)

	// Identity: the traced window must simulate exactly what the untraced
	// one did; then the fabric drains and conserves.
	bad := baseOut.diff(got)
	for i := range bad {
		bad[i] = "traced vs untraced " + bad[i]
	}
	chk.record("traced run", append(bad, f.drainCheck()...))
	f = nil
	runtime.GC()

	u, err := measureUnits(tr, op, fwd)
	if err != nil {
		return nil, err
	}
	put("sim.ns_per_event", "ns", u.event)
	put("sim.ns_per_event_ties", "ns", u.eventTies)
	put("link.ns_per_pkt", "ns", u.linkPkt)
	put("link.ns_per_drop", "ns", u.linkDrop)
	put("pool.ns_per_getput", "ns", u.getPut)
	put("device.ns_per_fwd", "ns", u.fwd)
	put("device.ns_per_fwd_tpp", "ns", u.fwdTPP)
	put("core.ns_per_insn", "ns", u.insn)
	put("host.ns_per_send", "ns", u.send)
	put("host.ns_per_recv", "ns", u.recv)
	put("apps.ns_per_sample", "ns", u.sample)
	put("apps.allocs_per_sample", "ratio", u.allocsSample)
	put("telemetry.ns_per_record", "ns", u.record)

	led := buildLedger(w, u, op.insns)
	fmt.Print(led)
	printJSON("ledger", led)
	put("ledger.measured_ns_per_pkt_hop", "ns", led.Measured)
	put("ledger.explained_ns_per_pkt_hop", "ns", led.Explained)
	put("ledger.residual_frac", "ratio", led.Residual)
	for _, layer := range []string{"sim", "link", "pool", "device", "core", "host", "apps", "telemetry"} {
		put("ledger."+layer+"_ns_per_pkt_hop", "ns", led.layerTotals()[layer])
	}

	// Slicing cost: the same window as one RunFor, which must simulate
	// exactly what the sliced window did.
	fu, err := newFabric(def, seed, def.shards, nil)
	if err != nil {
		return nil, err
	}
	wu := runWindow(fu, slices, false, nil)
	bad = baseOut.diff(fu.outcome())
	for i := range bad {
		bad[i] = "unsliced vs sliced " + bad[i]
	}
	chk.record("unsliced run", append(bad, fu.drainCheck()...))
	fu = nil
	runtime.GC()
	put("trace.slicing_ratio", "ratio", base.pktHopsPerSec()/wu.pktHopsPerSec())

	// The PDES verdict: the traced window at the workload's shard count
	// against the same fabric, seed and tracing on one shard.
	ratio := 0.0
	if def.shards > 1 {
		f1, err := newFabric(def, seed, 1, nil)
		if err != nil {
			return nil, err
		}
		w1 := runWindow(f1, slices, true, newTracer())
		chk.record("one-shard run", f1.drainCheck())
		ratio = w.wall.Seconds() / w1.wall.Seconds()
		printJSON("shard_ratio", map[string]any{
			"wall_s_shards": w.wall.Seconds(), "wall_s_one_shard": w1.wall.Seconds(), "shards": def.shards,
		})
	}
	put("shard.wall_ratio_2v1", "ratio", ratio)
	return m, nil
}

// measureUnits runs every unit-cost driver the workload's layers need, at
// op. Drivers for work the workload does not do report 0.
func measureUnits(tr *tracer, op *opPoint, fwd *fwdDriver) (*units, error) {
	sp := tr.begin("unit", root)
	defer tr.end(sp)
	u := &units{
		event:     nsPerEvent(tr, sp, op, false),
		eventTies: nsPerEvent(tr, sp, op, true),
		linkPkt:   nsPerLinkPkt(tr, sp, op),
		getPut:    nsPerGetPut(tr, sp, op.outstanding),
		fwd:       nsPerFwd(tr, sp, op, fwd, false),
	}
	if op.drops {
		u.linkDrop = nsPerLinkDrop(tr, sp, op)
	}
	if op.tpp != nil {
		u.fwdTPP = nsPerFwd(tr, sp, op, fwd, true)
		u.insn = nsPerInsn(tr, sp, op)
	}
	hd, err := newHostDriver(op)
	if err != nil {
		return nil, err
	}
	u.send = nsPerSend(tr, sp, op, hd)
	u.recv = nsPerRecv(tr, sp, op, hd)
	if op.queues != nil {
		perPkt, allocs, err := appCost(tr, sp, op)
		if err != nil {
			return nil, err
		}
		u.sample = (perPkt - u.recv) / float64(op.recsPerPkt)
		u.allocsSample = allocs / float64(op.recsPerPkt)
		u.record = nsPerRecord(tr, sp)
	}
	return u, nil
}
