package main

import (
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"time"

	"minions/apps/microburst"
	"minions/internal/core"
	"minions/internal/device"
	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/mem"
	"minions/internal/sim"
	"minions/internal/topo"
	"minions/internal/transport"
	"minions/telemetry"
	"minions/tppnet"
)

// opPoint is the operating point a traced window reported; every unit-cost
// driver runs at it, never at an occupancy no workload reaches.
type opPoint struct {
	pending     int                   // median scheduled events per shard engine
	horizon     sim.Time              // mean time an event stays pending (Little's law)
	grid        sim.Time              // serialization time of one data packet: the fabric's time quantum
	queueDepth  int                   // p99 link queue length, packets
	outstanding int                   // largest pool outstanding count
	wire        int                   // data packet wire size, TPP included
	recsPerPkt  int                   // TPP hop records per delivered packet (rounded)
	tpp         []byte                // the installed program, encoded with its wire app ID
	insns       int                   // instructions per hop
	drops       bool                  // the workload drops at full queues
	queues      []microburst.QueueKey // queues the microburst monitor saw
}

// Driver sizes: reps repetitions of a batch, the median batch is kept.
const (
	driverReps  = 5
	driverBatch = 20_000
)

// timeBatches runs warm once, then fn reps times and returns the median
// nanoseconds per operation (fn returns how many operations it did).
func timeBatches(tr *tracer, parent spanRef, name string, fn func() int) float64 {
	sp := tr.begin("unit."+name, parent)
	fn()
	per := make([]float64, driverReps)
	for i := range per {
		t0 := time.Now()
		n := fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	tr.end(sp)
	ns := median(per)
	tr.attr(sp, "ns_per_op", ns)
	return ns
}

// delayTable draws a power-of-two table of event delays uniform in
// [1, 2·horizon], quantized up to grid when grid > 0 (same-time keys).
func delayTable(rng *rand.Rand, horizon, grid sim.Time) []sim.Time {
	t := make([]sim.Time, 1<<12)
	for i := range t {
		d := sim.Time(rng.Int63n(int64(2*horizon))) + 1
		if grid > 0 {
			d = (d + grid - 1) / grid * grid
		}
		t[i] = d
	}
	return t
}

// holder is the hold-model event: each firing schedules its successor, so
// the engine stays at a constant pending depth.
type holder struct {
	eng    *sim.Engine
	delays []sim.Time
	i      int
}

func (h *holder) Handle(uint64) {
	h.eng.ScheduleAfter(h.delays[h.i&(len(h.delays)-1)], h, 0)
	h.i++
}

// nsPerEvent is Engine.Schedule plus the firing of a no-op Handler at the
// workload's pending depth, with delays spread over its event horizon, or
// quantized to the fabric's packet time so many events share a timestamp.
func nsPerEvent(tr *tracer, parent spanRef, op *opPoint, ties bool) float64 {
	eng := sim.New(1)
	rng := rand.New(rand.NewSource(7))
	var grid sim.Time
	name := "sim"
	if ties {
		grid, name = op.grid, "sim_ties"
	}
	h := &holder{eng: eng, delays: delayTable(rng, op.horizon, grid)}
	for i := 0; i < op.pending; i++ {
		eng.Schedule(h.delays[rng.Intn(len(h.delays))], h, 0)
	}
	// At depth P with mean delay H the engine fires P/H events per ns.
	span := sim.Time(float64(driverBatch) * float64(op.horizon) / float64(op.pending))
	return timeBatches(tr, parent, name, func() int {
		return eng.RunUntil(eng.Now() + span)
	})
}

// sinkRecv is a no-op link receiver that recycles what it is handed.
type sinkRecv struct{}

func (sinkRecv) Receive(p *link.Packet, _ int) { p.Release() }

// ringRecv is a no-op link receiver for packets that are not pooled.
type ringRecv struct{}

func (ringRecv) Receive(*link.Packet, int) {}

// nsPerLinkPkt is Link.Enqueue plus the link's own transmit-done and
// delivery Handle calls into a no-op receiver, with the queue held at the
// workload's p99 depth. Packets cycle through a fixed ring, not a pool, so
// the figure holds no pool work; it includes the link's two engine events.
func nsPerLinkPkt(tr *tracer, parent spanRef, op *opPoint) float64 {
	eng := sim.New(1)
	l := link.New(eng, topo.HostLink(linkMbps), ringRecv{}, 0)
	pkts := make([]link.Packet, op.queueDepth+64)
	for i := range pkts {
		pkts[i].Size = op.wire
	}
	next := 0
	put := func() {
		l.Enqueue(&pkts[next])
		next++
		if next == len(pkts) {
			next = 0
		}
	}
	for i := 0; i < op.queueDepth; i++ {
		put()
	}
	return timeBatches(tr, parent, "link", func() int {
		for i := 0; i < driverBatch; i++ {
			put()
			eng.RunUntil(eng.Now() + op.grid)
		}
		return driverBatch
	})
}

// nsPerLinkDrop is Link.Enqueue into a full drop-tail queue: the drop
// accounting and the release of the packet to its pool.
func nsPerLinkDrop(tr *tracer, parent spanRef, op *opPoint) float64 {
	eng := sim.New(1)
	pool := link.NewPool()
	l := link.New(eng, topo.HostLink(linkMbps), sinkRecv{}, 0)
	for {
		p := pool.Get()
		p.Size = op.wire
		if !l.Enqueue(p) {
			break
		}
	}
	return timeBatches(tr, parent, "link_drop", func() int {
		for i := 0; i < driverBatch; i++ {
			p := pool.Get()
			p.Size = op.wire
			l.Enqueue(p)
		}
		return driverBatch
	})
}

// nsPerGetPut is Pool.Get plus Put with the free list warmed to the
// workload's largest outstanding packet count.
func nsPerGetPut(tr *tracer, parent spanRef, outstanding int) float64 {
	pool := link.NewPool()
	pool.Reserve(outstanding)
	return timeBatches(tr, parent, "pool", func() int {
		for i := 0; i < driverBatch; i++ {
			pool.Get().Release()
		}
		return driverBatch
	})
}

// fwdDriver is a switch carrying a copy of a real fabric switch's route
// table, every port feeding a no-op receiver.
type fwdDriver struct {
	eng  *sim.Engine
	pool *link.Pool
	sw   *device.Switch
	dsts []link.NodeID
}

func newFwdDriver(real *device.Switch, hosts, switches []link.NodeID) *fwdDriver {
	d := &fwdDriver{eng: sim.New(1), pool: link.NewPool(), dsts: hosts}
	d.sw = device.New(d.eng, device.Config{ID: real.ID(), NumPorts: real.NumPorts(), NodeID: real.NodeID(), VendorID: 0xACE1})
	d.sw.PresizeRoutes(link.NodeID(len(hosts)), real.NodeID()-link.NodeID(real.ID()), len(switches))
	for _, ids := range [][]link.NodeID{hosts, switches} {
		for _, id := range ids {
			if ports := real.RoutePorts(id); len(ports) > 0 {
				d.sw.AddRoute(id, ports...)
			}
		}
	}
	for i := 0; i < real.NumPorts(); i++ {
		d.sw.AttachLink(i, link.New(d.eng, topo.HostLink(linkMbps), sinkRecv{}, 0), uint32(i))
	}
	return d
}

// nsPerFwd is Switch.Receive at the workload's route-table size, with the
// workload's TPP attached when withTPP, through the egress link into a
// no-op receiver. It includes one link packet and one pool get/put.
func nsPerFwd(tr *tracer, parent spanRef, op *opPoint, d *fwdDriver, withTPP bool) float64 {
	rng := rand.New(rand.NewSource(11))
	idx := make([]int, 1<<12)
	for i := range idx {
		idx[i] = rng.Intn(len(d.dsts))
	}
	name := "device"
	if withTPP {
		name = "device_tpp"
	}
	j := 0
	return timeBatches(tr, parent, name, func() int {
		for i := 0; i < driverBatch; i++ {
			p := d.pool.Get()
			p.Flow = link.FlowKey{Src: 1, Dst: d.dsts[idx[j&(len(idx)-1)]], SrcPort: uint16(j), DstPort: cbrPort, Proto: tppnet.ProtoUDP}
			p.Size = op.wire - len(op.tpp)
			p.TTL = 64
			if withTPP {
				p.TPP = p.SectionBuf(len(op.tpp))
				copy(p.TPP, op.tpp)
				p.Size += len(op.tpp)
			}
			j++
			d.sw.Receive(p, 0)
			d.eng.RunUntil(d.eng.Now() + op.grid)
		}
		return driverBatch
	})
}

// nsPerInsn is Executor.Exec of the workload's encoded program, one hop,
// against a register file holding every address it reads; per instruction.
func nsPerInsn(tr *tracer, parent spanRef, op *opPoint) float64 {
	prog, err := core.Decode(op.tpp)
	if err != nil {
		panic("perfbench: installed TPP does not decode: " + err.Error())
	}
	regs := &fewRegs{}
	for i, in := range prog.Insns {
		regs.addr[i], regs.val[i] = in.Addr, 3
	}
	regs.n = len(prog.Insns)
	ex := core.NewExecutor(core.Env{Mem: regs})
	sec := core.Section(append([]byte(nil), op.tpp...))
	return timeBatches(tr, parent, "core", func() int {
		for i := 0; i < driverBatch; i++ {
			sec.SetHopOrSP(0)
			ex.Exec(sec)
		}
		return driverBatch * op.insns
	})
}

// fewRegs is a switch memory holding just the registers one program
// reads, so the executor driver measures dispatch, not cache misses in a
// 64K-entry register file.
type fewRegs struct {
	addr [core.MaxInsns]mem.Addr
	val  [core.MaxInsns]uint32
	n    int
}

func (r *fewRegs) Read(a mem.Addr) (uint32, bool) {
	for i := 0; i < r.n; i++ {
		if r.addr[i] == a {
			return r.val[i], true
		}
	}
	return 0, false
}

func (r *fewRegs) Write(mem.Addr, uint32) bool { return false }

// hostDriver is one host whose NIC feeds a no-op receiver, with the
// workload's filter installed and a sink bound on the data port.
type hostDriver struct {
	eng  *sim.Engine
	pool *link.Pool
	cp   *host.ControlPlane
	h    *host.Host
	app  *host.App
	recs uint64
}

func newHostDriver(op *opPoint) (*hostDriver, error) {
	d := &hostDriver{eng: sim.New(1), pool: link.NewPool(), cp: host.NewControlPlane()}
	d.h = host.New(d.eng, 1, d.cp)
	d.h.SetPool(d.pool)
	d.h.AttachNIC(link.New(d.eng, topo.HostLink(linkMbps), sinkRecv{}, 0))
	transport.NewSink(d.h, cbrPort, tppnet.ProtoUDP)
	if op.tpp != nil {
		prog, err := core.Decode(op.tpp)
		if err != nil {
			return nil, err
		}
		d.app = d.cp.RegisterApp("perfbench-driver")
		if _, err := d.h.AddTPP(d.app, host.FilterSpec{Proto: tppnet.ProtoUDP}, prog, 1, 0); err != nil {
			return nil, err
		}
		d.h.RegisterAggregator(d.app.Wire, func(_ *link.Packet, view core.Section) {
			d.recs += uint64(view.HopOrSP())
		})
	}
	return d, nil
}

// nsPerSend is Host.Send with the workload's filter installed, through the
// NIC link into a no-op receiver: one link packet and one pool get/put.
func nsPerSend(tr *tracer, parent spanRef, op *opPoint, d *hostDriver) float64 {
	return timeBatches(tr, parent, "host_send", func() int {
		for i := 0; i < driverBatch; i++ {
			d.h.Send(d.h.NewPacket(2, 5000, cbrPort, tppnet.ProtoUDP, op.wire-len(op.tpp)))
			d.eng.RunUntil(d.eng.Now() + op.grid)
		}
		return driverBatch
	})
}

// executedTPPs returns templates of the installed program after recsPerPkt
// switch hops, each hop reading a queue the workload saw (or a synthetic
// one), re-stamped with app's wire ID.
func executedTPPs(op *opPoint, wire uint16) [][]byte {
	n := 64
	out := make([][]byte, n)
	rng := rand.New(rand.NewSource(13))
	regs := core.NewRegisterFile()
	ex := core.NewExecutor(core.Env{Mem: regs})
	prog, err := core.Decode(op.tpp)
	if err != nil {
		panic("perfbench: installed TPP does not decode: " + err.Error())
	}
	for i := range out {
		sec := core.Section(append([]byte(nil), op.tpp...))
		binary.BigEndian.PutUint16(sec[6:8], wire)
		for hop := 0; hop < op.recsPerPkt; hop++ {
			q := microburst.QueueKey{SwitchID: uint32(hop + 1), Port: uint32(rng.Intn(8))}
			if len(op.queues) > 0 {
				q = op.queues[rng.Intn(len(op.queues))]
			}
			// The §2.1 program reads switch ID, output port, occupancy.
			vals := [...]uint32{q.SwitchID, q.Port, uint32(rng.Intn(2))}
			for k, in := range prog.Insns {
				regs.Set(in.Addr, vals[k%len(vals)])
			}
			ex.Exec(sec)
		}
		out[i] = sec
	}
	return out
}

// recvLoop delivers batch packets to h: each drawn from pool, carrying one
// of the executed templates (or none), bound for the data port.
func recvLoop(h *host.Host, pool *link.Pool, op *opPoint, tpls [][]byte) int {
	for i := 0; i < driverBatch; i++ {
		p := pool.Get()
		p.Flow = link.FlowKey{Src: 2, Dst: h.ID(), SrcPort: 5000, DstPort: cbrPort, Proto: tppnet.ProtoUDP}
		p.Size = op.wire
		if tpls != nil {
			t := tpls[i&(len(tpls)-1)]
			p.TPP = p.SectionBuf(len(t))
			copy(p.TPP, t)
		}
		h.Receive(p, 0)
	}
	return driverBatch
}

// nsPerRecv is Host.Receive of the packet the workload delivers (an
// executed-TPP packet with a counting aggregator on TPP workloads), into a
// bound sink: it includes one pool get/put.
func nsPerRecv(tr *tracer, parent spanRef, op *opPoint, d *hostDriver) float64 {
	var tpls [][]byte
	if op.tpp != nil {
		tpls = executedTPPs(op, d.app.Wire)
	}
	return timeBatches(tr, parent, "host_recv", func() int {
		return recvLoop(d.h, d.pool, op, tpls)
	})
}

// appCost is Host.Receive with the microburst monitor attached (its sample
// stream exported into an idle pipeline, so spooling is left to the
// telemetry driver), per packet, with the allocations it made.
func appCost(tr *tracer, parent spanRef, op *opPoint) (nsPerPkt, allocsPerPkt float64, err error) {
	net := tppnet.NewNetwork(tppnet.WithSeed(1))
	h := net.AddHost()
	pool := link.NewPool()
	h.SetPool(pool)
	transport.NewSink(h, cbrPort, tppnet.ProtoUDP)
	mon := microburst.New(microburst.Config{Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP}, Hops: microHops})
	if err := mon.Attach(net, nil); err != nil {
		return 0, 0, err
	}
	mon.Export(telemetry.NewPipeline(telemetry.Config{}))
	tpls := executedTPPs(op, mon.ID().Wire)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0, _, _ := pool.Stats()
	ns := timeBatches(tr, parent, "apps", func() int {
		return recvLoop(h, pool, op, tpls)
	})
	runtime.ReadMemStats(&m1)
	g1, _, _ := pool.Stats()
	pkts := float64(g1 - g0)
	return ns, float64(m1.Mallocs-m0.Mallocs) / pkts, nil
}

// nsPerRecord is Pipeline.Publish of a microburst sample record plus its
// share of the Flush to an NDJSON sink writing to io.Discard, under the
// Block policy and default spool the workload uses.
func nsPerRecord(tr *tracer, parent spanRef) float64 {
	pipe := telemetry.NewPipeline(telemetry.Config{Policy: telemetry.Block})
	pipe.Attach(telemetry.NewNDJSONSink(io.Discard))
	return timeBatches(tr, parent, "telemetry", func() int {
		for i := 0; i < driverBatch; i++ {
			pipe.Publish(telemetry.Record{At: int64(i) * 1000, App: "microburst", Kind: "sample",
				Node: uint64(i & 63), Val: float64(i & 7), Aux: [3]uint64{uint64(i & 7)}})
		}
		pipe.Flush()
		return driverBatch
	})
}
