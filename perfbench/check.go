package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// outcome is a run's simulated result at the end of its window: the
// quantities the correctness gate pins per seed. All are deterministic.
type outcome struct {
	PktHops     uint64 `json:"pkt_hops"`
	Delivered   uint64 `json:"delivered"`
	LinkDrops   uint64 `json:"link_drops"`
	SwitchDrops uint64 `json:"switch_drops"`
	Events      uint64 `json:"events"`
	HopRecords  uint64 `json:"hop_records"`
	Records     uint64 `json:"telemetry_records"`
	Fingerprint string `json:"workload_fingerprint"`
}

func (f *fabric) outcome() outcome {
	c := f.read()
	return outcome{
		PktHops: c.PktHops, Delivered: c.HostRx, LinkDrops: c.LinkDrops,
		SwitchDrops: c.SwitchDrops, Events: c.Events, HopRecords: c.HopRecords,
		Records: c.Records, Fingerprint: f.runner.Fingerprint(),
	}
}

// diff lists every field where got differs from want.
func (want outcome) diff(got outcome) []string {
	var out []string
	add := func(name string, w, g uint64) {
		if w != g {
			out = append(out, fmt.Sprintf("%s: want %d, got %d", name, w, g))
		}
	}
	add("pkt_hops", want.PktHops, got.PktHops)
	add("delivered", want.Delivered, got.Delivered)
	add("link_drops", want.LinkDrops, got.LinkDrops)
	add("switch_drops", want.SwitchDrops, got.SwitchDrops)
	add("events", want.Events, got.Events)
	add("hop_records", want.HopRecords, got.HopRecords)
	add("telemetry_records", want.Records, got.Records)
	if want.Fingerprint != got.Fingerprint {
		out = append(out, fmt.Sprintf("workload fingerprint: want %q, got %q", want.Fingerprint, got.Fingerprint))
	}
	return out
}

// Golden outcomes: each workload at the run seed (1, the default) and one
// held-out seed, after the warmup and checkSlices window slices. Every
// benchmark run replays both and compares; a run never rewrites them (the
// package test regenerates the file with -update).
const checkSlices = 25

var goldenSeeds = []int64{1, 2}

//go:embed golden.json
var goldenJSON []byte

// goldens maps workload name → seed → expected outcome.
func goldens() (map[string]map[string]outcome, error) {
	g := map[string]map[string]outcome{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func seedKey(s int64) string { return strconv.FormatInt(s, 10) }

// drainCheck stops the workload, runs the network until no event remains
// and checks conservation from outside: every pool packet returned, every
// link queue empty, and host transmissions equal to deliveries plus link
// and switch-local drops. It also checks the workload's own invariants.
func (f *fabric) drainCheck() []string {
	var bad []string
	f.runner.Stop()
	f.events += uint64(f.net.Run())
	if f.pipe != nil {
		f.pipe.Flush()
		if err := f.pipe.Err(); err != nil {
			bad = append(bad, "telemetry sink: "+err.Error())
		}
	}
	if n := f.net.PoolOutstanding(); n != 0 {
		bad = append(bad, fmt.Sprintf("pool outstanding after drain: %d", n))
	}
	for i, l := range f.net.Links() {
		if l.QueueLenPackets() != 0 || l.Pending() {
			bad = append(bad, fmt.Sprintf("link %d not empty after drain (%d queued)", i, l.QueueLenPackets()))
			break
		}
	}
	c := f.read()
	if c.HostTx != c.HostRx+c.LinkDrops+c.SwitchDrops {
		bad = append(bad, fmt.Sprintf("conservation: host tx %d != delivered %d + link drops %d + switch drops %d",
			c.HostTx, c.HostRx, c.LinkDrops, c.SwitchDrops))
	}
	if c.PktHops == 0 || c.HostRx == 0 {
		bad = append(bad, "no traffic delivered")
	}
	switch f.def.tpp {
	case tppNone:
		if c.TPPAttached != 0 {
			bad = append(bad, fmt.Sprintf("%d TPPs attached on a workload without TPPs", c.TPPAttached))
		}
	case tppMicroburst:
		st := f.pipe.Stats()
		if c.Records != c.HopRecords || st.Flushed != st.Published || c.TelDropped != 0 {
			bad = append(bad, fmt.Sprintf("telemetry: %d samples, %d published, %d flushed, %d dropped",
				c.HopRecords, st.Published, st.Flushed, c.TelDropped))
		}
	}
	if f.def.tpp != tppNone && (c.HopRecords == 0 || c.TPPAttached != c.HostTx) {
		bad = append(bad, fmt.Sprintf("TPP path: %d of %d packets instrumented, %d hop records",
			c.TPPAttached, c.HostTx, c.HopRecords))
	}
	return bad
}

// checker tallies runs attempted and failed, keeping every failure text.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) record(what string, bad []string) {
	c.attempted++
	if len(bad) == 0 {
		return
	}
	c.failed++
	for _, b := range bad {
		c.failures = append(c.failures, what+": "+b)
	}
}
