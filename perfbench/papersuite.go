package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"tracecache"
	"tracecache/internal/experiments"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// Per-point budgets of the paper-suite workload: a reduced version of
// tcbench's defaults (400k warmup + 600k measured) so one full sweep of
// the 240 distinct points takes a few seconds on two CPUs.
const (
	suiteWarmup = 5_000
	suiteInsts  = 10_000
	// suiteRepeats is how many times each fresh sweep's experiment set is
	// resubmitted to the warm runner (every request memo-served).
	suiteRepeats = 50
)

// renderSuite renders experiment outputs exactly as tcbench prints them
// to stdout, in the given order, so the digest of the result equals the
// digest of `tcbench -exp all -warmup W -insts N` stdout.
func renderSuite(exps []tracecache.Experiment, outs map[string]string) string {
	var b strings.Builder
	for _, e := range exps {
		b.WriteString("==================================================================\n")
		fmt.Fprintf(&b, "%s: %s\n", e.ID, e.Title)
		fmt.Fprintf(&b, "paper: %s\n", e.Paper)
		b.WriteString("------------------------------------------------------------------\n")
		b.WriteString(outs[e.ID])
		b.WriteString("\n")
	}
	return b.String()
}

// pointLog collects RunDone events from a runner's OnRun hook. Checking
// digests happens after the timed interval, so the listener only appends.
type pointLog struct {
	mu     sync.Mutex
	events []experiments.RunEvent
}

func (l *pointLog) listener() func(experiments.RunEvent) {
	return func(ev experiments.RunEvent) {
		if ev.Phase != experiments.RunDone {
			return
		}
		l.mu.Lock()
		l.events = append(l.events, ev)
		l.mu.Unlock()
	}
}

func (l *pointLog) take() []experiments.RunEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := l.events
	l.events = nil
	return ev
}

// digestPoints digests every simulated point of one job's RunDone
// events. Memo shares carry the identical *stats.Run of the point they
// share, so each point is digested once. Errored points are returned as
// errors.
func digestPoints(events []experiments.RunEvent) (map[string]string, []*stats.Run, []error) {
	got := make(map[string]string)
	var simulated []*stats.Run
	var errs []error
	for _, ev := range events {
		switch {
		case ev.Err != nil:
			errs = append(errs, fmt.Errorf("%s: %w", ev.Key, ev.Err))
		case !ev.Memoized:
			got[ev.Key] = runDigest(ev.Run)
			simulated = append(simulated, ev.Run)
		}
	}
	return got, simulated, errs
}

// checkPoints verifies every resolved point of one job against the
// reference digests and records the outcome per point; errored points
// fail. It returns the simulated (non-memoized) points' runs.
func checkPoints(t *tally, what string, want map[string]string, events []experiments.RunEvent) []*stats.Run {
	got, simulated, errs := digestPoints(events)
	for _, err := range errs {
		t.fail("%s %v", what, err)
	}
	checkDigests(t, what, want, got)
	return simulated
}

// paperSuite is the `tcbench -exp all` reproduction: every paper
// experiment (16 machines x 15 benchmarks, 240 distinct points, 632
// requests with memo shares) on a fresh Runner per sweep.
type paperSuite struct{}

func (paperSuite) setup(o *options) (instance, error) {
	// Setup is program generation: every benchmark's synthetic program,
	// built through the uncached generator so each repetition pays the
	// full cost. The runner itself draws from the process-wide program
	// cache, which warmUp fills once.
	for _, name := range workload.Names() {
		prof, _ := workload.ByName(name)
		if _, err := prof.Generate(); err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
	}
	return &suiteInstance{}, nil
}

func (paperSuite) warmUp() error {
	for _, name := range workload.Names() {
		if _, err := workload.SharedProgram(name); err != nil {
			return err
		}
	}
	return nil
}

type suiteInstance struct{}

func (*suiteInstance) close() {}

func (*suiteInstance) measure(o *options, seconds float64, tr *tracer, t *tally) (*sample, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0x5eed_0001))
	// One untimed sweep first: a process's opening sweeps run slower while
	// its heap grows to working size. The warm-up's outputs are checked
	// like every other sweep's.
	runSweep(o, "warm-up", rng, nil, t, &sample{workers: o.workers})
	smp := &sample{workers: o.workers}
	start := time.Now()
	for sweep := 0; sweep == 0 || time.Since(start).Seconds() < seconds; sweep++ {
		runSweep(o, fmt.Sprintf("sweep-%d", sweep), rng, tr, t, smp)
	}
	return smp, nil
}

// runSweep resolves the whole experiment set on a fresh Runner, checks
// every point and the rendered output against the reference, then
// resubmits the set suiteRepeats times to the warm runner. It records
// the fresh sweep and the repeats into smp.
func runSweep(o *options, jobKey string, rng *rand.Rand, tr *tracer, t *tally, smp *sample) {
	ref := o.ref.PaperSuite
	exps := tracecache.Experiments()
	// The seed orders the experiments the runner receives, which changes
	// which experiment pays for each shared point and how the workers
	// interleave; the rendered output is order-independent.
	order := make([]tracecache.Experiment, len(exps))
	for i, j := range rng.Perm(len(exps)) {
		order[i] = exps[j]
	}
	job := tr.begin(0, "job.fresh", jobKey)
	var log pointLog
	r := tracecache.NewRunner(suiteWarmup, suiteInsts)
	r.Workers = o.workers
	r.OnRun = experiments.MultiListener(log.listener(), tr.runListener(job))

	outs, elapsed, err := runExperimentSet(r, order, tr, job)
	tr.end(job)
	if err != nil {
		t.fail("%s: %v", jobKey, err)
		return
	}
	events := log.take()
	runs := checkPoints(t, jobKey, ref.Points, events)
	rendered := renderSuite(exps, outs)
	if d := textDigest(rendered); d != ref.StdoutSHA256 {
		t.fail("%s: rendered output sha256 %s, reference %s", jobKey, d, ref.StdoutSHA256)
	} else {
		t.record(true, "")
	}
	var insts uint64
	for _, run := range runs {
		insts += suiteWarmup + run.Retired
	}
	smp.freshMs = append(smp.freshMs, ms(elapsed))
	smp.pointsPerS = append(smp.pointsPerS, float64(len(runs))/elapsed.Seconds())
	smp.minstsPerS = append(smp.minstsPerS, float64(insts)/1e6/elapsed.Seconds())
	smp.addPoints(events, runs, elapsed, insts)

	for rep := 0; rep < suiteRepeats; rep++ {
		key := fmt.Sprintf("%s-repeat-%d", jobKey, rep)
		job := tr.begin(0, "job.repeat", key)
		outs, elapsed, err := runExperimentSet(r, order, tr, job)
		tr.end(job)
		events := log.take()
		if err != nil {
			t.fail("%s: %v", key, err)
			continue
		}
		ok := true
		for _, ev := range events {
			if !ev.Memoized || ev.Err != nil {
				ok = false
			}
		}
		d := textDigest(renderSuite(exps, outs))
		t.record(ok && d == ref.StdoutSHA256, fmt.Sprintf("%s: repeat not memo-served or output changed", key))
		smp.repeatMs = append(smp.repeatMs, ms(elapsed))
	}
}

// runExperimentSet resolves the experiment set through RunExperiments and
// returns each experiment's rendered output by ID and the wall time.
func runExperimentSet(r *tracecache.Runner, exps []tracecache.Experiment, tr *tracer, parent uint64) (map[string]string, time.Duration, error) {
	outs := make(map[string]string, len(exps))
	var err error
	start := time.Now()
	tr.do(parent, "experiments.RunExperiments", "", func() {
		err = tracecache.RunExperiments(r, exps, func(e tracecache.Experiment, out string) {
			outs[e.ID] = out
		})
	})
	return outs, time.Since(start), err
}

func (*suiteInstance) streams(o *options) ([]stream, error) {
	// The workload's own retired stream: every benchmark recorded at the
	// sweep's per-point budget.
	return recordStreams(o, workload.Names(), suiteWarmup, suiteInsts)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
