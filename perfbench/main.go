// Command perfbench is the repository benchmark: three fat-tree workloads
// built from the simulator's public entry points, measured end to end with
// tracing off, and layer by layer in a separate traced run whose unit-cost
// drivers feed a cost ledger. See README.md for the workloads, metrics and
// how to run it.
//
//	perfbench --workload microburst-k8 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Earlier lines carry the environment stamp, the check
// failures and, when traced, the ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(run(os.Args[1:])) }

// extraSetups is how many set-ups beyond the golden replays and the
// measured one a run times, so setup_s is a median of seven.
const extraSetups = 4

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: microburst-k8, incast-k8 or sharded-k16")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "run length: the window is 25 slices per second")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	def, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// At most two shards run, so two Ps suffice; a fixed cap keeps GC
	// worker counts comparable across machines.
	if runtime.NumCPU() < maxShards {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(maxShards)
	}
	if procs := runtime.GOMAXPROCS(0); procs < def.shards || runtime.NumCPU() < def.shards {
		fmt.Fprintf(os.Stderr, "perfbench: %s needs %d cores for its %d shards; this machine has %d (GOMAXPROCS %d); refusing to run it\n",
			def.name, def.shards, def.shards, runtime.NumCPU(), procs)
		return 1
	}
	gold, err := goldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	slices := *seconds * slicesPerS
	stamp := map[string]any{
		"workload":       def.name,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"git_revision":   gitRevision(),
		"seed":           *seed,
		"shards":         def.shards,
		"slice_ns":       int64(def.slice),
		"slice_count":    slices,
		"slice_tail_pct": tailPercentile(slices),
		"warmup_ns":      int64(def.warmup),
		"check_seeds":    goldenSeeds,
		"check_slices":   checkSlices,
		"trace":          *trace,
		"window_sim_ns":  int64(def.slice) * int64(slices),
		"setup_samples":  len(goldenSeeds) + extraSetups + 1,
	}
	printJSON("env", stamp)

	// The measured run comes first, so its heap holds nothing but its own
	// fabric; golden replays and the extra set-ups follow.
	chk := &checker{}
	f, err := newFabric(def, *seed, def.shards, nil)
	if err != nil {
		return fail(err)
	}
	setups := []float64{f.setup.Seconds()}
	w := runWindow(f, slices, true, nil)
	measured := f.outcome()
	chk.record("measured run", f.drainCheck())
	f = nil
	runtime.GC()

	for _, s := range goldenSeeds {
		f, err := newFabric(def, s, def.shards, nil)
		if err != nil {
			return fail(err)
		}
		setups = append(setups, f.setup.Seconds())
		runWindow(f, checkSlices, true, nil)
		bad := []string{"no golden outcome recorded"}
		if want, ok := gold[def.name][seedKey(s)]; ok {
			bad = want.diff(f.outcome())
		}
		chk.record(fmt.Sprintf("golden seed %d", s), append(bad, f.drainCheck()...))
	}
	for i := 0; i < extraSetups; i++ {
		runtime.GC()
		f, err := newFabric(def, *seed, def.shards, nil)
		if err != nil {
			return fail(err)
		}
		setups = append(setups, f.setup.Seconds())
	}
	runtime.GC()

	res := result{Metrics: map[string]metric{}}
	tail := tailPercentile(slices)
	e2e := map[string]metric{
		"pkt_hops_per_s":    {median(w.chunkRates), "1/s"},
		"slice_wall_p50_us": {durPercentile(w.walls, 50), "us"},
		"slice_wall_p99_us": {durPercentile(w.walls, tail), "us"},
		"setup_s":           {median(setups), "s"},
		"peak_heap_mb":      {float64(w.peakHeap) / 1e6, "MB"},
	}
	printJSON("window", map[string]any{
		"pkt_hops": w.pktHops(), "wall_s": w.wall.Seconds(), "slices": w.slices,
		"allocs_per_pkt_hop": float64(w.mallocs) / float64(w.pktHops()),
		"gc_cycles":          w.gcCycles, "outcome": measured, "setup_s_samples": setups,
		"metrics": e2e, "chunk_rates": w.chunkRates, "total_pkt_hops_per_s": w.pktHopsPerSec(),
	})

	if *trace == 0 {
		res.Metrics = e2e
	} else {
		tr := newTracer()
		layers, err := tracedRun(def, *seed, slices, w, measured, chk, tr)
		if err != nil {
			return fail(err)
		}
		res.Metrics = layers
		path := filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-seed%d.json", def.name, *seed))
		if err := tr.write(path, stamp); err != nil {
			return fail(err)
		}
		fmt.Println("trace written to", path)
	}

	for _, msg := range chk.failures {
		fmt.Println("CHECK FAILED:", msg)
	}
	res.Correct = chk.failed == 0
	res.Attempted, res.Failed = chk.attempted, chk.failed
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// printJSON prints one labelled JSON line (never the last line).
func printJSON(label string, v any) {
	out, err := json.Marshal(v)
	if err != nil {
		out = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, out)
}

// gitRevision is the VCS revision the binary was built from, when the
// build saw a repository.
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
