package main

import (
	"bytes"
	"errors"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"tracecache"
	"tracecache/internal/experiments"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{1, 15}, {20, 15}, {21, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	// Order of the input does not matter and the input is not modified.
	ys := []float64{50, 15, 40, 20, 35}
	if got := percentile(ys, 50); got != 35 {
		t.Errorf("unsorted p50 = %v, want 35", got)
	}
	if ys[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
	// Ten samples: p90 is the ninth, not an interpolation.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestTallyAccounting(t *testing.T) {
	var tl tally
	if tl.errorRate() != 0 {
		t.Error("empty tally has a nonzero error rate")
	}
	for i := 0; i < 7; i++ {
		tl.record(true, "")
	}
	tl.fail("point %d", 1)
	tl.record(false, "job timed out")
	for i := 0; i < 20; i++ {
		tl.fail("flood %d", i)
	}
	a, f, reasons := tl.counts()
	if a != 29 || f != 22 {
		t.Fatalf("attempted %d failed %d, want 29 and 22", a, f)
	}
	if got, want := tl.errorRate(), 22.0/29.0; got != want {
		t.Errorf("error rate %v, want %v", got, want)
	}
	if len(reasons) != maxReasons || reasons[0] != "point 1" || reasons[1] != "job timed out" {
		t.Errorf("reasons = %q", reasons)
	}
}

// smallRuns simulates two tiny points and returns their RunDone events
// as a runner reports them, plus a memo share of the first.
func smallRuns(t *testing.T) []experiments.RunEvent {
	t.Helper()
	r := tracecache.NewRunner(200, 500)
	r.Workers = 1
	var log pointLog
	r.OnRun = log.listener()
	for _, b := range []string{"compress", "li", "compress"} {
		if _, err := r.RunE(tracecache.BaselineConfig(), b); err != nil {
			t.Fatal(err)
		}
	}
	ev := log.take()
	if len(ev) != 3 || !ev[2].Memoized {
		t.Fatalf("events = %+v", ev)
	}
	return ev
}

func referenceOf(events []experiments.RunEvent) map[string]string {
	ref := make(map[string]string)
	for _, ev := range events {
		if !ev.Memoized {
			ref[ev.Key] = runDigest(ev.Run)
		}
	}
	return ref
}

func TestReferenceDigestsMatch(t *testing.T) {
	ev := smallRuns(t)
	var tl tally
	runs := checkPoints(&tl, "job", referenceOf(ev), ev)
	a, f, _ := tl.counts()
	if a != 2 || f != 0 || len(runs) != 2 {
		t.Fatalf("attempted %d failed %d runs %d, want 2/0/2", a, f, len(runs))
	}
}

func TestPerturbedReferenceFailsOperations(t *testing.T) {
	ev := smallRuns(t)
	ref := referenceOf(ev)
	ref["baseline/compress"] = "0000" + ref["baseline/compress"][4:]
	var tl tally
	checkPoints(&tl, "job", ref, ev)
	a, f, reasons := tl.counts()
	if a != 2 || f != 1 {
		t.Fatalf("attempted %d failed %d (%q), want 2 attempted, 1 failed", a, f, reasons)
	}

	// A point the reference expects but the job did not produce fails,
	// and so does a point the reference does not know.
	ref = referenceOf(ev)
	ref["baseline/gcc"] = "feed"
	delete(ref, "baseline/li")
	tl = tally{}
	checkPoints(&tl, "job", ref, ev)
	if a, f, _ := tl.counts(); a != 3 || f != 2 {
		t.Fatalf("missing+extra: attempted %d failed %d, want 3 and 2", a, f)
	}

	// An errored point fails even when the digests agree.
	ev[1].Err = errors.New("boom")
	tl = tally{}
	checkPoints(&tl, "job", referenceOf(ev[:1]), ev)
	if _, f, _ := tl.counts(); f != 1 {
		t.Fatalf("errored point: failed %d, want 1", f)
	}
}

func TestRunDigestIgnoresMeta(t *testing.T) {
	ev := smallRuns(t)
	run := *ev[0].Run
	d := runDigest(&run)
	run.Meta = nil
	if runDigest(&run) != d {
		t.Error("digest depends on provenance metadata")
	}
	run.Cycles++
	if runDigest(&run) == d {
		t.Error("digest ignores a simulated counter")
	}
}

func TestEmbeddedReferenceLoads(t *testing.T) {
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ref.PaperSuite.Points); n != 240 {
		t.Errorf("paper-suite reference has %d points, want 240", n)
	}
	if n := len(ref.FrontendReplay.Points); n != len(replayConfigs)*len(replayBenchmarks) {
		t.Errorf("frontend-replay reference has %d points, want %d", n, len(replayConfigs)*len(replayBenchmarks))
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"tracecache/internal/exec.(*State).ReleaseBefore": "tracecache/internal/exec",
		"runtime.memmove": "runtime",
		"tracecache/internal/sim.(*Simulator).Run.func1": "tracecache/internal/sim",
		"net/http.(*conn).serve":                         "net/http",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestLayerSharesFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("no profile samples collected")
	}
	shares := layerShares(p, "tracecache/")
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// The spin loop lives in this package, so the benchmark's own module
	// path takes most of the time.
	if shares["perfbench"] < 0.5 {
		t.Errorf("perfbench share %v, want most of the profile (shares %v)", shares["perfbench"], shares)
	}
}
