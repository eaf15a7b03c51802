package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"minions/tppnet"
)

// windowResult is one measured window: per-slice wall times, the counters
// at both ends, and the runtime's allocation, GC and heap figures.
type windowResult struct {
	slices   int
	sliceLen int64 // simulated ns per slice
	walls    []time.Duration
	wall     time.Duration

	before, after counters

	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	// peakHeap is the largest live heap: the most recent GC's marked bytes
	// sampled at every slice boundary, and a forced collection's after the
	// window. Unswept garbage, which depends on GC timing, is left out.
	peakHeap uint64

	// chunkRates are pkt-hops per wall second over each of windowChunks
	// equal runs of slices; their median is robust to a burst of
	// interference from other tenants of the machine.
	chunkRates []float64

	// Traced windows only: per-shard pending-event counts and the
	// histogram of every link's queue length, both sampled at slice
	// boundaries.
	pending        []int
	queueHist      []uint64
	outstandingMax int64 // largest pool outstanding count
}

// windowChunks is how many equal parts a sliced window's throughput is
// taken over.
const windowChunks = 10

var heapSample = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/live:bytes"},
}

// heapAllocBytes is the cumulative count of bytes allocated on the heap.
func heapAllocBytes() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// liveHeapBytes is the heap the most recent GC marked live.
func liveHeapBytes() uint64 {
	metrics.Read(heapSample)
	return heapSample[1].Value.Uint64()
}

// linkTx sums transmissions over every link of f.
func linkTx(f *fabric) uint64 {
	var n uint64
	for _, l := range f.net.Links() {
		n += l.Stats().TxPackets
	}
	return n
}

// runWindow advances f by slices slices of f.def.slice each, timing every
// RunFor. With sliced false the same simulated length runs as one RunFor.
// With tr non-nil every slice becomes a window.slice span carrying the
// counter deltas read at its boundaries, and pending depths and queue
// lengths are sampled.
func runWindow(f *fabric, slices int, sliced bool, tr *tracer) *windowResult {
	w := &windowResult{slices: slices, sliceLen: int64(f.def.slice)}
	runs, step := slices, f.def.slice
	if !sliced {
		runs, step = 1, f.def.slice*tppnet.Time(slices)
	}
	w.walls = make([]time.Duration, runs)
	if tr != nil {
		w.pending = make([]int, 0, runs*f.shards)
		w.queueHist = make([]uint64, 64)
	}
	pend := make([]int, 0, maxShards)

	w.before = f.read()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.peakHeap = liveHeapBytes()

	chunk := runs / windowChunks
	if chunk == 0 {
		chunk = runs
	}
	winSp := tr.begin("window", root)
	prev := w.before
	start := time.Now()
	chunkStart, chunkTx := start, w.before.PktHops
	for i := 0; i < runs; i++ {
		var sp spanRef
		if tr != nil {
			sp = tr.begin("window.slice", winSp)
		}
		t0 := time.Now()
		f.runFor(step)
		w.walls[i] = time.Since(t0)
		if h := liveHeapBytes(); h > w.peakHeap {
			w.peakHeap = h
		}
		if (i+1)%chunk == 0 {
			now, tx := time.Now(), linkTx(f)
			w.chunkRates = append(w.chunkRates, float64(tx-chunkTx)/now.Sub(chunkStart).Seconds())
			chunkStart, chunkTx = now, tx
		}
		if tr != nil {
			cur := f.read()
			tr.end(sp)
			attrDeltas(tr, sp, &prev, &cur)
			prev = cur
			if o := f.net.PoolOutstanding(); o > w.outstandingMax {
				w.outstandingMax = o
			}
			pend = f.pending(pend)
			w.pending = append(w.pending, pend...)
			for _, l := range f.net.Links() {
				q := l.QueueLenPackets()
				for q >= len(w.queueHist) {
					w.queueHist = append(w.queueHist, make([]uint64, len(w.queueHist))...)
				}
				w.queueHist[q]++
			}
		}
	}
	w.wall = time.Since(start)
	tr.end(winSp)

	runtime.ReadMemStats(&m1)
	runtime.GC()
	if h := liveHeapBytes(); h > w.peakHeap {
		w.peakHeap = h
	}
	w.after = f.read()
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.gcCycles = m1.NumGC - m0.NumGC
	w.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return w
}

// attrDeltas records the counter deltas of one slice on its span.
func attrDeltas(tr *tracer, sp spanRef, a, b *counters) {
	tr.attr(sp, "events", float64(b.Events-a.Events))
	tr.attr(sp, "pkt_hops", float64(b.PktHops-a.PktHops))
	tr.attr(sp, "link_drops", float64(b.LinkDrops-a.LinkDrops))
	tr.attr(sp, "switch_rx", float64(b.SwitchRx-a.SwitchRx))
	tr.attr(sp, "host_tx", float64(b.HostTx-a.HostTx))
	tr.attr(sp, "host_rx", float64(b.HostRx-a.HostRx))
	tr.attr(sp, "pool_gets", float64(b.PoolGets-a.PoolGets))
	tr.attr(sp, "hop_records", float64(b.HopRecords-a.HopRecords))
	tr.attr(sp, "telemetry_records", float64(b.Records-a.Records))
	tr.attr(sp, "workload_pkts", float64(b.WorkloadPkt-a.WorkloadPkt))
	tr.attr(sp, "crossings", float64(b.Crossings-a.Crossings))
}

// pktHops returns the window's link transmissions.
func (w *windowResult) pktHops() uint64 { return w.after.PktHops - w.before.PktHops }

// pktHopsPerSec is the window's simulated link transmissions per wall second.
func (w *windowResult) pktHopsPerSec() float64 {
	return float64(w.pktHops()) / w.wall.Seconds()
}

// nsPerPktHop is the window's wall nanoseconds per link transmission.
func (w *windowResult) nsPerPktHop() float64 {
	return float64(w.wall.Nanoseconds()) / float64(w.pktHops())
}
