package testbed

// Sync guards for the asynchronous conservative engine: shards never
// rendezvous inside a run, so the deterministic sync counters must show one
// group-wide synchronization point per RunUntil, and a sharded run must
// match the single-shard run byte for byte. The internal/sim tests hold the
// engine to the global-epoch barrier reference it replaced.

import "testing"

// TestSyncPointReduction pins the asynchronous engine's synchronization
// cost at k=16, shards=4: the measured window (one RunFor) enters exactly
// one group-wide sync point — a barrier engine needs one per lookahead
// window — while crossings flow and simulated behavior matches one shard.
func TestSyncPointReduction(t *testing.T) {
	run := func(shards int) *ScaleResult {
		res, err := RunScaleFatTree(ScaleConfig{
			K: 16, Flows: 256, Duration: 10 * Millisecond,
			WithTPP: true, Seed: 1, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if a, b := scaleFingerprint(one), scaleFingerprint(four); a != b {
		t.Fatalf("k=16 shards=4 diverges from shards=1:\n  1: %s\n  4: %s", a, b)
	}
	if four.SyncPoints != 1 {
		t.Errorf("measured window entered %d sync points, want 1 (one fork-join)", four.SyncPoints)
	}
	if four.SyncCrossings == 0 {
		t.Error("no shard crossings drained — the 4-shard run is not exercising the channels")
	}
	t.Logf("k=16 shards=4: %d sync point, %d crossings", four.SyncPoints, four.SyncCrossings)
}

// TestSyncCountersDeterministic pins run-to-run reproducibility of the
// deterministic counter subset (sync points, crossings) — the committed-JSON
// diagnosability contract. Drains and idle waits may move with goroutine
// scheduling and are deliberately excluded.
func TestSyncCountersDeterministic(t *testing.T) {
	var points, crossings uint64
	for i := 0; i < 3; i++ {
		res, err := RunScaleFatTree(ScaleConfig{
			K: 4, Flows: 64, Duration: 20 * Millisecond,
			WithTPP: true, Seed: 3, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			points, crossings = res.SyncPoints, res.SyncCrossings
		} else if res.SyncPoints != points || res.SyncCrossings != crossings {
			t.Fatalf("run %d counter drift: sync points %d->%d, crossings %d->%d",
				i, points, res.SyncPoints, crossings, res.SyncCrossings)
		}
	}
}
