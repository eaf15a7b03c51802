package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"minions/apps/microburst"
	"minions/internal/asm"
	"minions/internal/core"
	"minions/internal/device"
	"minions/internal/host"
	"minions/internal/topo"
	"minions/telemetry"
	"minions/testbed"
	"minions/tpp"
	"minions/tppnet"
	"minions/workload"
)

// tppKind names the TPP a workload piggybacks on its data packets.
type tppKind int

const (
	tppNone       tppKind = iota
	tppMicroburst         // the §2.1 3-PUSH program, apps/microburst
	tppScale              // the 2-PUSH scale telemetry program, counting aggregator
)

// workloadDef is one benchmark workload: a fat-tree, its traffic and its
// instrumentation, plus the fixed simulated slicing of the measured window.
type workloadDef struct {
	name   string
	k      int
	shards int
	tpp    tppKind
	flows  int // CBR flows; 0 selects the canned partition-aggregate incast
	// slice is the simulated length of one window slice. It is fixed per
	// workload (not derived from wall time) so that a run's simulated
	// outcome depends on the seed alone; it was sized so one slice takes
	// about 40 ms of wall time on a 2-vCPU x86 machine.
	slice  tppnet.Time
	warmup tppnet.Time
}

const (
	linkMbps   = 1000
	flowBps    = 20_000_000
	pktSize    = 1400
	cbrPort    = 9100
	scaleHops  = 6 // longest fat-tree path is 5 switch hops; one spare, as testbed's scale run
	microHops  = 5 // apps/microburst default: the fat-tree diameter
	maxShards  = 2
	slicesPerS = 25 // window slices per --seconds of run length
)

var workloads = []*workloadDef{
	{name: "microburst-k8", k: 8, shards: 1, tpp: tppMicroburst, flows: 256,
		slice: 16 * tppnet.Millisecond, warmup: 20 * tppnet.Millisecond},
	{name: "incast-k8", k: 8, shards: 1, tpp: tppNone,
		slice: 16 * tppnet.Millisecond, warmup: 20 * tppnet.Millisecond},
	{name: "sharded-k16", k: 16, shards: 2, tpp: tppScale, flows: 512,
		slice: 4 * tppnet.Millisecond, warmup: 20 * tppnet.Millisecond},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fabric is one built, attached and warmed instance of a workload.
type fabric struct {
	def    *workloadDef
	seed   int64
	shards int
	net    *tppnet.Network
	hosts  []*host.Host
	runner *workload.Runner

	mon  *microburst.Monitor // tppMicroburst
	pipe *telemetry.Pipeline // tppMicroburst
	hops *atomic.Uint64      // tppScale: hop records counted by the aggregator

	prog     *core.Program // the installed TPP, nil without TPPs
	tppBytes int           // encoded TPP length

	events uint64 // RunFor/Run returns summed since construction

	build, routes time.Duration // topo.build_s, topo.routes_s
	routeBytes    uint64        // heap bytes ComputeRoutes allocated
	attach        time.Duration // workload.attach_s
	setup         time.Duration // construction through warmup
}

// scaleProgram is the 2-PUSH per-hop collection TPP of the sharded
// workload: switch ID and queue occupancy, as in testbed's scale run.
func scaleProgram() (*tpp.Program, error) {
	return tpp.NewProgram().Push(tpp.SwitchID).Push(tpp.QueueOccupancy).Hops(scaleHops).Build()
}

// microProgram is the §2.1 TPP the microburst monitor installs.
func microProgram() (*core.Program, error) {
	return asm.Assemble(fmt.Sprintf(".hops %d\n%s", microHops, microburst.Program))
}

// newFabric builds the workload at seed on shards shards, attaches its app
// and traffic, prewarms and runs the simulated warmup. Every phase is a
// span under "setup" when tr is non-nil.
func newFabric(def *workloadDef, seed int64, shards int, tr *tracer) (*fabric, error) {
	f := &fabric{def: def, seed: seed, shards: shards}
	t0 := time.Now()
	setupSp := tr.begin("setup", root)

	f.net = testbed.NewNet(testbed.SimOpts{Seed: seed, Shards: shards})
	sp := tr.begin("setup.topo_build", setupSp)
	pods := topo.FatTreeBuild(f.net.Network, def.k, linkMbps)
	f.build = tr.end(sp)
	for _, pod := range pods {
		f.hosts = append(f.hosts, pod...)
	}

	alloc0 := heapAllocBytes()
	sp = tr.begin("setup.routes", setupSp)
	f.net.ComputeRoutes()
	f.routes = tr.end(sp)
	f.routeBytes = heapAllocBytes() - alloc0

	sp = tr.begin("setup.app_attach", setupSp)
	var err error
	switch def.tpp {
	case tppMicroburst:
		err = f.attachMicroburst()
	case tppScale:
		err = f.attachScale()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("setup.workload_attach", setupSp)
	var spec workload.Spec
	if def.flows > 0 {
		spec = workload.UniformRandom(workload.UniformRandomConfig{
			Flows: def.flows, RateBps: flowBps, PktSize: pktSize, DstPort: cbrPort, Seed: seed,
		})
	} else {
		spec = *testbed.WorkloadIncastFatTree(def.k)
		spec.Seed = seed
	}
	f.runner, err = spec.Attach(f.hosts)
	f.attach = tr.end(sp)
	if err != nil {
		return nil, err
	}

	// Queue rings are presized for the smallest frame the workload sends:
	// 1400-byte CBR packets, or any size under the incast spec.
	minWire := 0
	if def.flows > 0 {
		minWire = pktSize
	}
	sp = tr.begin("setup.prewarm", setupSp)
	f.net.Prewarm(minWire, f.tppBytes)
	tr.end(sp)

	sp = tr.begin("setup.warmup", setupSp)
	f.events += uint64(f.net.RunFor(def.warmup))
	tr.end(sp)

	tr.end(setupSp)
	f.setup = time.Since(t0)
	return f, nil
}

// attachMicroburst installs the §2.1 monitor on every host's UDP traffic
// and streams its samples into a Block-policy pipeline with an NDJSON sink
// writing to io.Discard.
func (f *fabric) attachMicroburst() error {
	f.mon = microburst.New(microburst.Config{Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP}, Hops: microHops})
	if err := f.mon.Attach(f.net, nil); err != nil {
		return err
	}
	if err := f.mon.Start(); err != nil {
		return err
	}
	f.pipe = telemetry.NewPipeline(telemetry.Config{Policy: telemetry.Block})
	f.pipe.Attach(telemetry.NewNDJSONSink(io.Discard))
	f.mon.Export(f.pipe)
	prog, err := microProgram()
	if err != nil {
		return err
	}
	prog.AppID = f.mon.ID().Wire
	return f.setProgram(prog)
}

// attachScale installs the 2-PUSH telemetry TPP on every host's CBR
// traffic with a counting aggregator. Aggregators run on shard goroutines;
// the tally is atomic because additions commute.
func (f *fabric) attachScale() error {
	prog, err := scaleProgram()
	if err != nil {
		return err
	}
	app := f.net.CP.RegisterApp("perfbench-scale")
	filter := tppnet.FilterSpec{Proto: tppnet.ProtoUDP, DstPort: cbrPort}
	// The aggregator captures only the counter: a closure reaching the
	// fabric would keep a sharded network alive through its shard workers,
	// whose finalizer then never runs.
	hops := new(atomic.Uint64)
	f.hops = hops
	count := func(_ *tppnet.Packet, view tpp.Section) {
		// Count collected hop records straight off the section header,
		// without copying the view.
		words := view.HopOrSP()
		if max := view.MemWords(); words > max {
			words = max
		}
		hops.Add(uint64(words) / 2)
	}
	for _, h := range f.hosts {
		if _, err := h.AddTPP(app, filter, prog, 1, 0); err != nil {
			return err
		}
		h.RegisterAggregator(app.Wire, count)
	}
	return f.setProgram(prog)
}

func (f *fabric) setProgram(prog *core.Program) error {
	enc, err := prog.Encode()
	if err != nil {
		return err
	}
	f.prog, f.tppBytes = prog, len(enc)
	return nil
}

// runFor advances the fabric by d of simulated time.
func (f *fabric) runFor(d tppnet.Time) int {
	n := f.net.RunFor(d)
	f.events += uint64(n)
	return n
}

// insnsPerHop is the installed program's instruction count, 0 without TPPs.
func (f *fabric) insnsPerHop() int {
	if f.prog == nil {
		return 0
	}
	return len(f.prog.Insns)
}

// counters is a point-in-time read of every layer's public counters. All
// fields are exact and, except where noted, deterministic for a seed.
type counters struct {
	Events      uint64 // engine events fired (RunFor returns)
	PktHops     uint64 // link transmissions
	LinkDrops   uint64 // drop-tail losses
	SwitchDrops uint64 // switch-local drops (no route, TTL, no link, halted)
	HostTx      uint64
	HostRx      uint64 // delivered packets
	TPPAttached uint64
	MTUSkips    uint64
	PoolGets    uint64
	PoolNews    uint64
	SwitchRx    uint64 // packets received by switches
	HopRecords  uint64 // TPP hop records collected (samples for microburst)
	Records     uint64 // telemetry records published
	TelDropped  uint64 // telemetry records dropped by policy
	WorkloadPkt uint64 // packets put on the wire by workload generators
	Overflow    uint64 // workload paced messages dropped at a full ring
	Crossings   uint64 // shard-crossing deliveries
	Drains      uint64 // non-empty mailbox sweeps (interleaving-dependent)
	IdleMax     uint64 // largest per-shard idle-park count (interleaving-dependent)

	DropsByReason [device.NumDropReasons]uint64
}

// switchLocal reports whether a switch drop reason is local to the switch,
// as opposed to a loss the egress link already counts.
func switchLocal(r device.DropReason) bool {
	switch r {
	case device.DropQueueFull, device.DropLinkDown, device.DropFaultLoss:
		return false
	}
	return true
}

// read snapshots every layer's counters.
func (f *fabric) read() counters {
	c := counters{Events: f.events}
	for _, l := range f.net.Links() {
		st := l.Stats()
		c.PktHops += st.TxPackets
		c.LinkDrops += st.DropPackets
	}
	for _, sw := range f.net.Switches {
		for r := device.DropReason(0); r < device.NumDropReasons; r++ {
			n := sw.Drops(r)
			c.DropsByReason[r] += n
			if switchLocal(r) {
				c.SwitchDrops += n
			}
		}
		for p := 0; p < sw.NumPorts(); p++ {
			_, pk := sw.Port(p).RxStats()
			c.SwitchRx += pk
		}
	}
	for _, h := range f.hosts {
		st := h.Stats()
		c.HostTx += st.TxPackets
		c.HostRx += st.RxPackets
		c.TPPAttached += st.TPPsAttached
		c.MTUSkips += st.MTUSkips
	}
	c.PoolGets, _, c.PoolNews = f.net.PoolStats()
	switch f.def.tpp {
	case tppMicroburst:
		c.HopRecords = f.mon.Samples()
		st := f.pipe.Stats()
		c.Records = st.Published
		c.TelDropped = st.DroppedOldest + st.DroppedNewest
	case tppScale:
		c.HopRecords = f.hops.Load()
	}
	for _, gs := range f.runner.Stats() {
		c.WorkloadPkt += gs.Packets
		c.Overflow += gs.Overflow
	}
	if g := f.net.Group(); g != nil {
		st := g.Stats()
		c.Crossings, c.Drains, c.IdleMax = st.Crossings, st.Drains, st.MaxIdleParks
	}
	return c
}

// pending returns each shard engine's scheduled-event count.
func (f *fabric) pending(dst []int) []int {
	dst = dst[:0]
	for i := 0; i < f.net.Shards(); i++ {
		dst = append(dst, f.net.ShardEngine(i).Pending())
	}
	return dst
}
