package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current program")

// identitySlices is the short window the identity test runs per workload.
const identitySlices = 20

// deterministic strips the counters that depend on goroutine interleaving
// (mailbox drains and idle parks) and adds the workload fingerprint.
func deterministic(f *fabric) string {
	c := f.read()
	c.Drains, c.IdleMax = 0, 0
	return fmt.Sprintf("%+v %s", c, f.runner.Fingerprint())
}

// TestSlicingAndTracingIdentity pins that neither slicing the window nor
// tracing it is observable: a window run as identitySlices RunFor slices,
// as one RunFor of the same length, and as traced slices gives
// byte-identical counters and fingerprints, and each drains clean.
func TestSlicingAndTracingIdentity(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			var got [3]string
			for i, mode := range []struct {
				sliced bool
				tr     *tracer
			}{{true, nil}, {false, nil}, {true, newTracer()}} {
				f, err := newFabric(def, 3, def.shards, mode.tr)
				if err != nil {
					t.Fatal(err)
				}
				runWindow(f, identitySlices, mode.sliced, mode.tr)
				got[i] = deterministic(f)
				if bad := f.drainCheck(); len(bad) > 0 {
					t.Errorf("mode %d: %v", i, bad)
				}
			}
			if got[0] != got[1] {
				t.Errorf("sliced and unsliced windows differ:\n sliced   %s\n unsliced %s", got[0], got[1])
			}
			if got[0] != got[2] {
				t.Errorf("untraced and traced windows differ:\n untraced %s\n traced   %s", got[0], got[2])
			}
		})
	}
}

// TestGoldenOutcomes replays the committed golden seeds, or rewrites
// golden.json with -update.
func TestGoldenOutcomes(t *testing.T) {
	want, err := goldens()
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]map[string]outcome{}
	for _, def := range workloads {
		fresh[def.name] = map[string]outcome{}
		for _, s := range goldenSeeds {
			f, err := newFabric(def, s, def.shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			runWindow(f, checkSlices, true, nil)
			got := f.outcome()
			fresh[def.name][seedKey(s)] = got
			if bad := f.drainCheck(); len(bad) > 0 {
				t.Errorf("%s seed %d: %v", def.name, s, bad)
			}
			if *update {
				continue
			}
			if d := want[def.name][seedKey(s)].diff(got); len(d) > 0 {
				t.Errorf("%s seed %d: %v", def.name, s, d)
			}
		}
	}
	if *update {
		out, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
