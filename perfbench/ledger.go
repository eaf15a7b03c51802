package main

import (
	"fmt"
	"math"
	"strings"

	"minions/internal/device"
	"minions/internal/link"
	"minions/internal/sim"
)

// units are the unit costs the drivers measured, in ns per operation.
type units struct {
	event, eventTies     float64
	linkPkt, linkDrop    float64
	getPut               float64
	fwd, fwdTPP          float64
	insn                 float64
	send, recv           float64
	sample, allocsSample float64
	record               float64
}

// ledgerRow is one layer's share of the measured ns/pkt-hop: its unit
// cost (self time: what its driver measured minus the other layers' work
// the driver also did) times the layer's exact work count in the window.
type ledgerRow struct {
	Layer       string  `json:"layer"`
	Unit        string  `json:"unit"`
	NsPerUnit   float64 `json:"ns_per_unit"`
	Count       uint64  `json:"count"`
	NsPerPktHop float64 `json:"ns_per_pkt_hop"`
}

type ledger struct {
	Rows      []ledgerRow `json:"rows"`
	PktHops   uint64      `json:"pkt_hops"`
	Measured  float64     `json:"measured_ns_per_pkt_hop"`
	Explained float64     `json:"explained_ns_per_pkt_hop"`
	Residual  float64     `json:"residual_frac"`
}

// buildLedger reconciles unit cost × work count with the traced window's
// measured wall ns/pkt-hop. Engine events are split by owner: every link
// transmission fires two (transmit done, delivery), counted in the link
// row; the rest (generators, crossings) are the sim row.
func buildLedger(w *windowResult, u *units, insnsPerHop int) *ledger {
	a, b := &w.before, &w.after
	hops := b.PktHops - a.PktHops
	d := func(x, y uint64) uint64 { return y - x }
	linkEvents := 2 * hops
	events := d(a.Events, b.Events)
	otherEvents := uint64(0)
	if events > linkEvents {
		otherEvents = events - linkEvents
	}
	recs := d(a.HopRecords, b.HopRecords)
	rows := []ledgerRow{
		{Layer: "sim", Unit: "event not owned by a link", NsPerUnit: u.event, Count: otherEvents},
		{Layer: "link", Unit: "transmission", NsPerUnit: u.linkPkt, Count: hops},
		{Layer: "link", Unit: "drop", NsPerUnit: u.linkDrop - u.getPut, Count: d(a.LinkDrops, b.LinkDrops)},
		{Layer: "pool", Unit: "get+put", NsPerUnit: u.getPut, Count: d(a.PoolGets, b.PoolGets)},
		{Layer: "device", Unit: "forward", NsPerUnit: u.fwd - u.linkPkt - u.getPut, Count: d(a.SwitchRx, b.SwitchRx)},
		{Layer: "device", Unit: "TPP dispatch", NsPerUnit: u.fwdTPP - u.fwd - float64(insnsPerHop)*u.insn, Count: recs},
		{Layer: "core", Unit: "instruction", NsPerUnit: u.insn, Count: recs * uint64(insnsPerHop)},
		{Layer: "host", Unit: "send", NsPerUnit: u.send - u.linkPkt - u.getPut, Count: d(a.HostTx, b.HostTx)},
		{Layer: "host", Unit: "receive", NsPerUnit: u.recv - u.getPut, Count: d(a.HostRx, b.HostRx)},
		{Layer: "apps", Unit: "sample", NsPerUnit: u.sample, Count: 0},
		{Layer: "telemetry", Unit: "record", NsPerUnit: u.record, Count: d(a.Records, b.Records)},
	}
	if u.sample > 0 {
		rows[9].Count = recs
	}
	l := &ledger{PktHops: hops, Measured: w.nsPerPktHop()}
	for i := range rows {
		r := &rows[i]
		// A self time is the difference of two drivers; below zero it is
		// within their noise, and the ledger counts it as no cost.
		if r.Count == 0 || r.NsPerUnit < 0 {
			r.NsPerUnit = 0
		}
		r.NsPerPktHop = r.NsPerUnit * float64(r.Count) / float64(hops)
		l.Explained += r.NsPerPktHop
	}
	l.Rows = rows
	l.Residual = 1 - l.Explained/l.Measured
	return l
}

// layerTotals sums the ledger's ns/pkt-hop per layer.
func (l *ledger) layerTotals() map[string]float64 {
	out := map[string]float64{}
	for _, r := range l.Rows {
		out[r.Layer] += r.NsPerPktHop
	}
	return out
}

// String renders the ledger with every ratio's base.
func (l *ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger over %d pkt-hops (measured %.1f ns/pkt-hop)\n", l.PktHops, l.Measured)
	for _, r := range l.Rows {
		fmt.Fprintf(&b, "  %-10s %-26s %9.1f ns × %12d = %7.1f ns/pkt-hop\n",
			r.Layer, r.Unit, r.NsPerUnit, r.Count, r.NsPerPktHop)
	}
	fmt.Fprintf(&b, "  explained %.1f of %.1f ns/pkt-hop, residual %.3f\n", l.Explained, l.Measured, l.Residual)
	return b.String()
}

// operatingPoint derives the drivers' operating point from a traced
// window over f: pending depth and event horizon, p99 queue depth, the
// installed program and the queues the monitor saw.
func operatingPoint(f *fabric, w *windowResult) *opPoint {
	op := &opPoint{
		pending:     int(percentileInts(w.pending, 50)),
		queueDepth:  histPercentile(w.queueHist, 99),
		outstanding: int(w.outstandingMax),
		wire:        pktSize + f.tppBytes,
		insns:       f.insnsPerHop(),
		drops:       w.after.LinkDrops > w.before.LinkDrops,
	}
	if op.pending < 1 {
		op.pending = 1
	}
	// One data packet's serialization time on the fabric's links.
	op.grid = sim.Time(int64(op.wire) * 8 * int64(sim.Second) / (linkMbps * 1_000_000))
	simNs := float64(int64(w.slices) * w.sliceLen * int64(f.shards))
	rate := float64(w.after.Events-w.before.Events) / simNs // events per ns per shard
	op.horizon = sim.Time(math.Max(1, float64(op.pending)/rate))
	if rx := w.after.HostRx - w.before.HostRx; rx > 0 {
		op.recsPerPkt = int(math.Round(float64(w.after.HopRecords-w.before.HopRecords) / float64(rx)))
	}
	if f.prog != nil {
		enc, err := f.prog.Encode()
		if err != nil {
			panic("perfbench: installed TPP does not encode: " + err.Error())
		}
		op.tpp = enc
	}
	if f.mon != nil {
		op.queues = f.mon.Queues()
	}
	return op
}

// edgeSwitch is the first edge switch of pod 0: cores come first, then
// each pod's aggregation and edge switches alternate.
func edgeSwitch(f *fabric) *device.Switch {
	half := f.def.k / 2
	return f.net.Switches[half*half+1]
}

// fabricIDs returns every host and switch node ID of f.
func fabricIDs(f *fabric) (hosts, switches []link.NodeID) {
	for _, h := range f.hosts {
		hosts = append(hosts, h.ID())
	}
	for _, sw := range f.net.Switches {
		switches = append(switches, sw.NodeID())
	}
	return hosts, switches
}

// dropReasonName is a metric-safe name for a switch drop reason.
func dropReasonName(r device.DropReason) string {
	return strings.ReplaceAll(r.String(), "-", "_")
}
