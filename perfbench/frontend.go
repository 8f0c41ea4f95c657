package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tracecache"
	"tracecache/internal/experiments"
	"tracecache/internal/workload"
)

// Budgets of the frontend-replay workload: each point replays a 400k
// instruction committed stream (100k warmup, 300k measured).
const (
	replayWarmup  = 100_000
	replayInsts   = 300_000
	replayRepeats = 20
)

// replayBenchmarks mixes large-code branchy benchmarks (gcc, go) with
// small-code loopy ones (compress, m88ksim); on two workers setup records
// the two large ones together, then the two small ones.
var replayBenchmarks = []string{"gcc", "go", "compress", "m88ksim"}

// replayConfigs are every named configuration front-end-equivalent to
// the baseline, so one recording per benchmark serves them all.
var replayConfigs = []string{
	"baseline", "packing",
	"promo-t8", "promo-t16", "promo-t32", "promo-t64", "promo-t128", "promo-t256",
	"promo-pack-unregulated", "promo-pack-costreg", "promo-pack-chunk2", "promo-pack-chunk4",
}

type replayPoint struct {
	cfg   tracecache.Config
	bench string
}

func replayPoints() ([]replayPoint, error) {
	var pts []replayPoint
	for _, name := range replayConfigs {
		cfg, ok := tracecache.ConfigByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown config %q", name)
		}
		for _, b := range replayBenchmarks {
			pts = append(pts, replayPoint{cfg: cfg, bench: b})
		}
	}
	return pts, nil
}

// frontendReplay sweeps the front-end configurations over recorded
// retired streams: a Runner with Replay set and a TraceDir that setup
// fills by recording each benchmark once.
type frontendReplay struct{}

func (frontendReplay) warmUp() error {
	for _, b := range replayBenchmarks {
		if _, err := workload.SharedProgram(b); err != nil {
			return err
		}
	}
	return nil
}

func (frontendReplay) setup(o *options) (instance, error) {
	for _, b := range replayBenchmarks {
		prof, _ := workload.ByName(b)
		if _, err := prof.Generate(); err != nil {
			return nil, fmt.Errorf("generate %s: %w", b, err)
		}
	}
	dir, err := os.MkdirTemp(o.dir, "traces-")
	if err != nil {
		return nil, err
	}
	// Record each benchmark once: the baseline's first request per
	// benchmark runs detailed with the recorder attached and installs the
	// stream in TraceDir.
	if err := record(o, dir, replayBenchmarks, replayWarmup, replayInsts); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.tctrace"))
	if len(files) != len(replayBenchmarks) {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("record: %d streams in %s, want %d", len(files), dir, len(replayBenchmarks))
	}
	pts, err := replayPoints()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &replayInstance{dir: dir, points: pts}, nil
}

type replayInstance struct {
	dir    string
	points []replayPoint
}

func (ri *replayInstance) close() { os.RemoveAll(ri.dir) }

// sweep resolves every point on the runner, in the given order, fanned
// out like Runner.SweepE (the runner's worker pool bounds simulation).
func (ri *replayInstance) sweep(r *tracecache.Runner, order []int, tr *tracer, parent uint64) []error {
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, idx := range order {
		wg.Add(1)
		go func(i int, pt replayPoint) {
			defer wg.Done()
			tr.do(parent, "runner.RunE", pt.cfg.Name+"/"+pt.bench, func() {
				_, errs[i] = r.RunE(pt.cfg, pt.bench)
			})
		}(i, ri.points[idx])
	}
	wg.Wait()
	return errs
}

func (ri *replayInstance) measure(o *options, seconds float64, tr *tracer, t *tally) (*sample, error) {
	want := o.ref.FrontendReplay.Points
	rng := rand.New(rand.NewPCG(o.seed, 0x5eed_0002))
	smp := &sample{workers: o.workers}
	start := time.Now()
	for sweep := 0; sweep == 0 || time.Since(start).Seconds() < seconds; sweep++ {
		order := rng.Perm(len(ri.points))
		jobKey := fmt.Sprintf("sweep-%d", sweep)
		var log pointLog
		r := tracecache.NewRunner(replayWarmup, replayInsts)
		r.Workers = o.workers
		r.Replay = true
		r.TraceDir = ri.dir
		job := tr.begin(0, "job.fresh", jobKey)
		r.OnRun = experiments.MultiListener(log.listener(), tr.runListener(job))
		t0 := time.Now()
		errs := ri.sweep(r, order, tr, job)
		elapsed := time.Since(t0)
		tr.end(job)
		for _, err := range errs {
			if err != nil {
				t.fail("%s: %v", jobKey, err)
			}
		}
		events := log.take()
		for _, ev := range events {
			if !ev.Memoized && ev.Err == nil && ev.Provenance != "replay" {
				t.fail("%s %s: provenance %q, want replay", jobKey, ev.Key, ev.Provenance)
			}
		}
		runs := checkPoints(t, jobKey, want, events)
		var insts uint64
		for _, run := range runs {
			insts += replayWarmup + run.Retired
		}
		smp.freshMs = append(smp.freshMs, ms(elapsed))
		smp.pointsPerS = append(smp.pointsPerS, float64(len(runs))/elapsed.Seconds())
		smp.minstsPerS = append(smp.minstsPerS, float64(insts)/1e6/elapsed.Seconds())
		smp.addPoints(events, runs, elapsed, insts)

		for rep := 0; rep < replayRepeats; rep++ {
			key := fmt.Sprintf("%s-repeat-%d", jobKey, rep)
			job := tr.begin(0, "job.repeat", key)
			t0 := time.Now()
			errs := ri.sweep(r, rng.Perm(len(ri.points)), tr, job)
			elapsed := time.Since(t0)
			tr.end(job)
			events := log.take()
			ok := len(events) == len(ri.points)
			for _, ev := range events {
				ok = ok && ev.Memoized && ev.Err == nil
			}
			for _, err := range errs {
				ok = ok && err == nil
			}
			t.record(ok, fmt.Sprintf("%s: repeat not memo-served", key))
			smp.repeatMs = append(smp.repeatMs, ms(elapsed))
		}
	}
	return smp, nil
}

func (ri *replayInstance) streams(o *options) ([]stream, error) {
	return loadStreams(ri.dir)
}
