package testbed

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"minions/telemetry"
	"minions/telemetry/trace"
)

// TestCaptureReplayFig2 is the headline capture/replay guarantee: a Figure 2
// run with capture enabled produces traces that replay — into a rebuild with
// no RCP* system and no flows — to a byte-identical table.
func TestCaptureReplayFig2(t *testing.T) {
	const dur = 2 * Second
	o := SimOpts{Seed: 42}

	var mm, pr bytes.Buffer
	live, err := RunFig2Captured(dur, o, &mm, &pr)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Len() == 0 || pr.Len() == 0 {
		t.Fatalf("empty panel traces: maxmin %d B, prop %d B", mm.Len(), pr.Len())
	}

	replayed, err := RunFig2Replay(dur, o, bytes.NewReader(mm.Bytes()), bytes.NewReader(pr.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lt, rt := live.Table(), replayed.Table(); lt != rt {
		t.Fatalf("replayed Figure 2 table differs from live run:\n--- live ---\n%s--- replay ---\n%s", lt, rt)
	}
	if live.FinalMaxMin[0] == 0 && live.FinalMaxMin[1] == 0 {
		t.Fatal("live run carried no traffic; the byte-identical check is vacuous")
	}
}

// TestCaptureReplayFig4 checks the same for Figure 4, including the CONGA*
// probe-overhead row, which the replay recovers from standalone-probe bytes
// in the trace rather than from a running balancer.
func TestCaptureReplayFig4(t *testing.T) {
	const dur = 2 * Second
	o := SimOpts{Seed: 42}

	var ecmp, cng bytes.Buffer
	live, err := RunFig4Captured(dur, o, &ecmp, &cng)
	if err != nil {
		t.Fatal(err)
	}
	if ecmp.Len() == 0 || cng.Len() == 0 {
		t.Fatalf("empty scheme traces: ecmp %d B, conga %d B", ecmp.Len(), cng.Len())
	}
	if live.Conga.ProbeMbps == 0 {
		t.Fatal("live CONGA* run reports zero probe overhead; capture missed the standalone probes")
	}

	replayed, err := RunFig4Replay(dur, o, bytes.NewReader(ecmp.Bytes()), bytes.NewReader(cng.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lt, rt := live.Table(), replayed.Table(); lt != rt {
		t.Fatalf("replayed Figure 4 table differs from live run:\n--- live ---\n%s--- replay ---\n%s", lt, rt)
	}
}

// TestCaptureRejectsShardedRun pins the single-shard restriction on both the
// capture and replay sides.
func TestCaptureRejectsShardedRun(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunFig2Captured(Second, SimOpts{Seed: 1, Shards: 2}, &buf, nil); !errors.Is(err, ErrShardedCapture) {
		t.Fatalf("sharded capture: got %v, want ErrShardedCapture", err)
	}
	if _, err := RunFig4Replay(Second, SimOpts{Seed: 1, Shards: 2}, strings.NewReader(""), nil); !errors.Is(err, ErrShardedCapture) {
		t.Fatalf("sharded replay: got %v, want ErrShardedCapture", err)
	}
}

// TestTraceStartRejectsShardedHosts: the trace entry points themselves, not
// only the testbed runners, refuse hosts spread over several shard engines —
// their taps would write one buffered stream from several goroutines.
func TestTraceStartRejectsShardedHosts(t *testing.T) {
	n := NewNet(SimOpts{Seed: 1, Shards: 2})
	hosts, _, _ := n.Dumbbell(4, 100)
	if hosts[0].Engine() == hosts[len(hosts)-1].Engine() {
		t.Fatal("2-shard dumbbell put every host on one engine; the test is vacuous")
	}
	if _, err := trace.Start(io.Discard, hosts...); !errors.Is(err, ErrShardedCapture) {
		t.Fatalf("trace.Start on sharded hosts: got %v, want ErrShardedCapture", err)
	}
	if _, err := trace.Replay(strings.NewReader(""), nil, hosts...); !errors.Is(err, ErrShardedCapture) {
		t.Fatalf("trace.Replay on sharded hosts: got %v, want ErrShardedCapture", err)
	}
}

// TestFig2RejectsShortRun: a Figure 2 run shorter than one sampling step
// has no rate sample to report, and must say so with a typed error rather
// than index an empty series.
func TestFig2RejectsShortRun(t *testing.T) {
	for _, shards := range []int{1, 2} {
		_, err := RunFig2With(200*Millisecond, SimOpts{Seed: 1, Shards: shards})
		var short *ShortRunError
		if !errors.As(err, &short) {
			t.Fatalf("shards=%d: got %v, want *ShortRunError", shards, err)
		}
		if short.Duration != 200*Millisecond || short.Step != 250*Millisecond {
			t.Fatalf("shards=%d: error carries duration %d, step %d", shards, short.Duration, short.Step)
		}
	}
	if _, err := RunFig2With(250*Millisecond, SimOpts{Seed: 1}); err != nil {
		t.Fatalf("one-step run: %v", err)
	}
}

// TestFig2TraceDecodes checks the captured panel trace is a well-formed
// telemetry/trace stream (the same file cmd/tppdump decodes).
func TestFig2TraceDecodes(t *testing.T) {
	var mm bytes.Buffer
	if _, err := RunFig2Captured(Second, SimOpts{Seed: 7}, &mm, nil); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(bytes.NewReader(mm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("trace decoded to zero records")
	}
	last := int64(-1)
	for i, r := range recs {
		if r.At < last {
			t.Fatalf("record %d at %d precedes predecessor at %d; trace not time-ordered", i, r.At, last)
		}
		last = r.At
	}
}

// TestScaleExportRecords runs a small fat-tree with the hop-record export
// attached and checks the pipeline sees exactly the hop samples the
// aggregators counted, tagged with the pinned scale/hop schema.
func TestScaleExportRecords(t *testing.T) {
	var sink telemetry.MemSink
	pipe := telemetry.NewPipeline(telemetry.Config{Spool: 1 << 16, Policy: telemetry.Block})
	pipe.Attach(&sink)
	res, err := RunScaleFatTree(ScaleConfig{
		K: 4, Flows: 16, Duration: 10 * Millisecond, Warmup: 5 * Millisecond,
		WithTPP: true, Export: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TPPHopRecords == 0 {
		t.Fatal("no hop records collected")
	}
	if len(sink.Records) == 0 {
		t.Fatal("no records exported")
	}
	// The export covers the whole run (warmup included) while TPPHopRecords
	// is baselined to the measured window, so exported >= counted.
	if uint64(len(sink.Records)) < res.TPPHopRecords {
		t.Fatalf("exported %d records < %d hop records in the measured window", len(sink.Records), res.TPPHopRecords)
	}
	for _, r := range sink.Records {
		if r.App != "scale" || r.Kind != "hop" {
			t.Fatalf("record tagged %s/%s", r.App, r.Kind)
		}
		if r.Node == 0 {
			t.Fatal("hop record with zero switch ID")
		}
	}
	if st := pipe.Stats(); st.DroppedOldest+st.DroppedNewest != 0 {
		t.Fatalf("Block pipeline dropped records: %+v", st)
	}
}

// TestScaleExportRequiresTPPAndSingleShard pins the configuration guards.
func TestScaleExportRequiresTPPAndSingleShard(t *testing.T) {
	pipe := telemetry.NewPipeline(telemetry.Config{})
	if _, err := RunScaleFatTree(ScaleConfig{K: 4, Export: pipe}); err == nil {
		t.Fatal("Export without WithTPP accepted")
	}
	if _, err := RunScaleFatTree(ScaleConfig{K: 4, WithTPP: true, Shards: 2, Export: pipe}); err == nil {
		t.Fatal("Export with 2 shards accepted")
	}
}
