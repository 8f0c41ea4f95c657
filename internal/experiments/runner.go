// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 1-4, Figures 4-16) on the synthetic benchmark suite.
// Each experiment formats the same rows and series the paper reports;
// absolute values differ (different workloads and substrate), but the
// comparative shapes are the reproduction target.
//
// # Concurrency
//
// A Runner is safe for concurrent use. Memoization is singleflight: the
// first caller of a (configuration, benchmark) key simulates it, every
// concurrent caller of the same key blocks until that simulation finishes
// and then shares the identical *stats.Run — a run in flight is awaited,
// never duplicated. Actual simulations are bounded by a worker pool of
// Workers slots (default GOMAXPROCS); goroutines waiting on an in-flight
// key do not hold a slot, so fan-out can be arbitrarily wide without
// deadlock. Each simulation runs single-threaded and is a pure function of
// its configuration, program, and budgets, so results are bit-identical to
// sequential execution regardless of Workers (run provenance metadata such
// as wall time necessarily differs; no simulated statistic does). Sweep,
// SweepE and RunAll fan work across the pool while returning or emitting
// results in paper order; with Workers == 1 they degrade to strictly
// sequential execution, which also makes the Log line order deterministic.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"tracecache/internal/obs"
	"tracecache/internal/program"
	"tracecache/internal/resultstore"
	"tracecache/internal/sampling"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// Runner executes simulations with memoization, so configurations shared
// between experiments (baseline, promotion, packing) are simulated once.
// See the package comment for the concurrency contract.
type Runner struct {
	// Warmup instructions retire before measurement; Budget instructions
	// are then measured.
	Warmup uint64
	Budget uint64
	// FastForward, when non-zero, executes that many committed instructions
	// functionally before the detailed phases — restored from one shared
	// architectural checkpoint per benchmark (captured once per process, see
	// workload.SharedCheckpoint), so a sweep of N configurations pays for
	// the prefix once instead of N times. Microarchitectural structures are
	// not checkpointed; Warmup should stay large enough to warm them.
	FastForward uint64
	// Log, when non-nil, receives progress lines. Writes are serialized by
	// the runner, but their order under Workers > 1 follows completion
	// order, not paper order.
	Log io.Writer
	// Workers bounds concurrently executing simulations; non-positive
	// selects GOMAXPROCS. It must be set before the first Run/Sweep call;
	// later changes have no effect.
	Workers int
	// Check runs every simulation with the self-verification layer
	// (sim.Config.Check) enabled. Checking changes no simulated
	// statistic; a run that reports violations fails with an error
	// carrying the violation report. Set before the first Run call.
	Check bool
	// Replay enables the front-end replay fast path: the first simulation
	// of each benchmark runs detailed with the retired-stream recorder
	// attached, and every later point whose configuration differs from
	// the recording only in front-end axes (sim.FrontEndEquivalent) is
	// replayed from the stream instead of simulated — producing front-end
	// statistics with stats.ProvReplay provenance and zero cycle-domain
	// statistics, within the fidelity envelope of check.CompareReplay
	// (see DESIGN.md §9). Points that vary core-side axes, and all runs
	// when Check is set, bypass replay and simulate detailed. Under
	// Workers > 1 which point records is completion-order dependent;
	// every simulated statistic of each individual point is still
	// deterministic. Set before the first Run call.
	Replay bool
	// TraceDir, when non-empty with Replay, persists recordings under
	// content-addressed names so later processes replay every point,
	// recording each benchmark exactly once across process lifetimes.
	// Set before the first Run call.
	TraceDir string
	// Store, when non-nil, is the persistent content-addressed result
	// store consulted before every simulation (after the in-process memo,
	// before replay and the worker's detailed run): a valid entry whose
	// key — full configuration hash, benchmark, execution mode — matches
	// the request is served verbatim with stats.ProvStore provenance and
	// zero simulation; a completed simulation is persisted back, so later
	// processes and users pay nothing for the same point. Mode matching is
	// fidelity-preserving (DESIGN.md §11): detailed requests are served
	// only from detailed entries, Replay-mode requests may also accept
	// replay entries, sampled requests only sampled ones. Check runs
	// bypass the store entirely in both directions — a checked run must
	// actually simulate, and its purpose is to distrust stored numbers.
	// Set before the first Run call.
	Store *resultstore.Store
	// Sampling, when enabled, is the schedule RunSampledE and SweepSampledE
	// drive (see internal/sampling): Budget becomes the total committed-
	// stream extent each sampled run covers, window/period/warmup/seed come
	// from here, and Warmup is unused on the sampled path (each window
	// carries its own warmup). The detailed path (RunE, SweepE) ignores
	// this field entirely. Set before the first RunSampledE call.
	Sampling sim.SamplingParams
	// Metrics, when non-nil, receives fleet-level counters for every run
	// request (see RunnerMetrics); r.Metrics.Sim is attached to every
	// simulator the runner builds. Instrumentation changes no simulated
	// statistic and no Runner output. Set before the first Run call.
	Metrics *RunnerMetrics
	// OnRun, when non-nil, receives run-lifecycle events (see RunEvent).
	// It is called from the goroutines executing or awaiting runs, so it
	// may be called concurrently; listeners serialize internally (see
	// MultiListener, journal.RunnerListener, monitor.Progress.Listener).
	// Set before the first Run call.
	OnRun func(RunEvent)
	// NewObserver, when non-nil, builds one obs.Bus per simulation, which
	// the runner attaches before Run. A bus is not safe for concurrent
	// use, so the factory must return a fresh bus per call; sinks shared
	// across buses must be concurrency-safe (metrics.BusSink is). Set
	// before the first Run call.
	NewObserver func() *obs.Bus

	logMu sync.Mutex

	mu     sync.Mutex
	sem    chan struct{} // sized from Workers on first use
	runs   map[string]*runEntry
	traces map[string]*traceEntry // per-benchmark recordings (Replay)
}

// runEntry is one singleflight memoization slot: done closes once the
// result is final, and it is immutable afterwards.
type runEntry struct {
	done chan struct{}
	result
}

// NewRunner builds a runner with the given instruction budgets.
func NewRunner(warmup, budget uint64) *Runner {
	return &Runner{
		Warmup: warmup,
		Budget: budget,
		runs:   make(map[string]*runEntry),
	}
}

// workers resolves the effective worker-pool size.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// acquire claims a worker slot, creating the pool on first use, and
// returns the release function.
func (r *Runner) acquire() func() {
	r.mu.Lock()
	if r.sem == nil {
		r.sem = make(chan struct{}, r.workers())
		if m := r.Metrics; m != nil {
			m.WorkersLimit.Set(int64(r.workers()))
		}
	}
	sem := r.sem
	r.mu.Unlock()
	sem <- struct{}{}
	return func() { <-sem }
}

// emit delivers a run-lifecycle event to the OnRun listener, if any.
func (r *Runner) emit(ev RunEvent) {
	if r.OnRun != nil {
		r.OnRun(ev)
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Log, format, args...)
}

// Benchmarks returns the benchmark names in paper order.
func (r *Runner) Benchmarks() []string { return workload.Names() }

// ShortBenchmarks returns the abbreviated axis labels of the paper's
// figures.
func (r *Runner) ShortBenchmarks() []string {
	names := workload.Names()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = workload.ShortName(n)
	}
	return out
}

// RunE simulates the benchmark under the configuration, memoized by
// configuration name. Concurrent calls with the same key share one
// simulation.
func (r *Runner) RunE(cfg sim.Config, bench string) (*stats.Run, error) {
	q := r.request(&cfg, bench, false)
	e := r.resolve(&q)
	return e.run, e.err
}

// request is one run request resolved once against the runner: cfg
// carries the runner's budgets, sampling schedule, and Check (exactly the
// configuration the simulator runs and the store keys on), and key is the
// memo label name/bench, suffixed with the schedule for sampled requests.
type request struct {
	key     string
	cfg     sim.Config
	bench   string
	sampled bool
}

// request resolves a call's arguments. It is built on every call, memo
// hits included, so it copies cfg once and computes no hash.
func (r *Runner) request(cfg *sim.Config, bench string, sampled bool) (q request) {
	q.cfg, q.bench, q.sampled = *cfg, bench, sampled
	q.cfg.WarmupInsts = r.Warmup
	q.cfg.MaxInsts = r.Budget
	q.cfg.FastForwardInsts = r.FastForward
	q.cfg.Check = r.Check
	q.key = cfg.Name + "/" + bench
	if sampled {
		// The schedule is part of the key for the same reason it is part of
		// Config.Hash: a sampled result is an estimate parameterized by its
		// schedule, never the same number as a detailed run.
		p := r.Sampling
		q.cfg.WarmupInsts = 0 // each window carries its own warmup
		q.cfg.Sampling = p
		q.key += fmt.Sprintf("#sampled-w%d-p%d-u%d-s%d", p.WindowInsts, p.PeriodInsts, p.WarmupInsts, p.Seed)
	}
	return q
}

// result is one request's outcome: the run (for a sampled request, its
// pooled window counters), the sampled aggregate of a sampled request,
// the provenance of the tier that produced it, and the request-level
// timing that counters, events, and journal records need.
type result struct {
	run        *stats.Run
	sampled    *stats.Sampled
	err        error
	provenance string
	queueWait  time.Duration
	wall       time.Duration
}

// resolve is the singleflight core: at most one goroutine executes a key;
// the rest wait for its entry and share the result. The executing request
// emits RunQueued/RunStarted/RunDone with its tier's provenance; every
// sharing request emits one memoized RunDone after the result is final,
// carrying the identical *stats.Run.
func (r *Runner) resolve(q *request) *runEntry {
	r.mu.Lock()
	if e, ok := r.runs[q.key]; ok {
		r.mu.Unlock()
		if m := r.Metrics; m != nil {
			m.MemoHits.Inc()
		}
		<-e.done
		r.emit(RunEvent{
			Phase: RunDone, Key: q.key, Config: q.cfg.Name, Benchmark: q.bench,
			Run: e.run, Err: e.err,
			Memoized: true, Provenance: stats.ProvMemoized,
		})
		return e
	}
	e := &runEntry{done: make(chan struct{})}
	r.runs[q.key] = e
	r.mu.Unlock()

	if m := r.Metrics; m != nil {
		m.MemoMisses.Inc()
	}
	r.emit(RunEvent{Phase: RunQueued, Key: q.key, Config: q.cfg.Name, Benchmark: q.bench})
	e.result = r.execute(*q)
	if m := r.Metrics; m != nil {
		if e.err != nil {
			m.RunsFailed.Inc()
		} else {
			m.RunsCompleted.Inc()
			m.byProvenance(e.provenance).Inc()
		}
	}
	r.emit(RunEvent{
		Phase: RunDone, Key: q.key, Config: q.cfg.Name, Benchmark: q.bench,
		Run: e.run, Err: e.err,
		Provenance: e.provenance,
		QueueWait:  e.queueWait, Wall: e.wall,
	})
	close(e.done)
	return e
}

// execute resolves one request under a worker slot, converting panics
// from configuration or simulator internals into errors so a bad config in
// a parallel sweep fails that sweep instead of the process. The tiers are
// tried in order: store, replay, then a detailed (checkpoint fork or
// cold) or sampled simulation.
func (r *Runner) execute(q request) (res result) {
	// Registered before the recover defer, so it runs after it (LIFO) and
	// observes the final result — including panics converted to errors,
	// which it must not persist.
	defer func() { r.storePut(q, res) }()
	defer func() {
		if p := recover(); p != nil {
			res = result{err: fmt.Errorf("experiments: %s: panic: %v", q.key, p),
				queueWait: res.queueWait, wall: res.wall}
		}
	}()
	prog, err := workload.SharedProgram(q.bench)
	if err != nil {
		return result{err: fmt.Errorf("experiments: %s: %w", q.key, err)}
	}
	//tcvet:ignore determinism wall-clock telemetry only: queue-wait measurement start, never simulated state
	queuedAt := time.Now()
	release := r.acquire()
	defer release()
	//tcvet:ignore determinism wall-clock telemetry only: queue-wait histogram and journal, never simulated state
	res.queueWait = time.Since(queuedAt)
	if m := r.Metrics; m != nil {
		m.RunsStarted.Inc()
		m.WorkersBusy.Add(1)
		m.QueueWait.Observe(res.queueWait.Seconds())
	}
	r.emit(RunEvent{Phase: RunStarted, Key: q.key, Config: q.cfg.Name, Benchmark: q.bench,
		QueueWait: res.queueWait})
	//tcvet:ignore determinism wall-clock telemetry only: run-wall measurement start, never simulated state
	startedAt := time.Now()
	defer func() {
		//tcvet:ignore determinism wall-clock telemetry only: run-wall histogram and journal, never simulated state
		res.wall = time.Since(startedAt)
		if m := r.Metrics; m != nil {
			m.WorkersBusy.Add(-1)
			m.RunWall.Observe(res.wall.Seconds())
		}
	}()
	out, err := r.tiers(q, prog)
	if err != nil {
		out = result{err: fmt.Errorf("experiments: %s: %w", q.key, err)}
	}
	out.queueWait = res.queueWait
	return out
}

// tiers returns the first answer of the request's tiers: the store, then
// replay (detailed requests of a Replay runner; Check bypasses it), then
// simulate.
func (r *Runner) tiers(q request, prog *program.Program) (result, error) {
	if res, ok := r.fromStore(q); ok {
		return res, nil
	}
	var rec *traceEntry
	if r.Replay && !q.sampled && !r.Check {
		run, te, err := r.replay(q, prog)
		if run != nil || err != nil {
			return result{run: run, provenance: stats.ProvReplay}, err
		}
		if rec = te; rec != nil {
			// Resolved on every exit, panics included: waiters see the
			// stream only if this run completes it, else they fall back
			// to detailed simulation.
			rec.err = fmt.Errorf("experiments: %s: recording run did not complete", q.key)
			defer close(rec.done)
		}
	}
	return r.simulate(q, prog, rec)
}

// simulate is the detailed and sampled tier. It builds the request's
// simulator and restores the benchmark's shared checkpoint when the runner
// fast-forwards — the capture is memoized process-wide, so the first
// arrival captures under its worker slot and later arrivals restore a
// cheap copy. A run recording into rec skips the restore: the stream must
// start at the program entry, so it fast-forwards functionally under the
// tap and stays cold. A sampled request runs the sampling driver and
// fails on any sampling-audit violation; every run fails on a self-check
// violation.
func (r *Runner) simulate(q request, prog *program.Program, rec *traceEntry) (result, error) {
	s, err := sim.New(q.cfg, prog)
	if err != nil {
		return result{}, err
	}
	if m := r.Metrics; m != nil {
		s.AttachMetrics(m.Sim)
	}
	if r.NewObserver != nil {
		if bus := r.NewObserver(); bus != nil {
			s.AttachObserver(bus)
		}
	}
	var finish func()
	if rec != nil {
		if finish, err = r.record(q, s, rec); err != nil {
			return result{}, err
		}
	}
	forked := q.cfg.FastForwardInsts > 0 && rec == nil
	if forked {
		cp, err := workload.SharedCheckpoint(q.bench, q.cfg.FastForwardInsts)
		if err != nil {
			return result{}, err
		}
		if err := s.ApplyCheckpoint(cp); err != nil {
			return result{}, err
		}
	}
	if q.sampled {
		r.logf("sampling %s...\n", q.key)
		out, err := sampling.Run(s)
		if err == nil {
			err = checkViolations(s)
		}
		if err != nil {
			return result{}, err
		}
		if len(out.Violations) > 0 {
			return result{}, fmt.Errorf("sampling audit: %d violation(s), first: %s",
				len(out.Violations), out.Violations[0].Detail)
		}
		if forked && out.Sampled.Meta != nil {
			// Meta is shared between the aggregate and the pooled run.
			out.Sampled.Meta.CheckpointShared = true
		}
		return result{run: out.Run, sampled: out.Sampled, provenance: stats.ProvSampled}, nil
	}
	r.logf("running %s...\n", q.key)
	res := result{run: s.Run(), provenance: stats.ProvCold}
	if forked {
		res.provenance = stats.ProvCheckpointFork
	}
	if err := checkViolations(s); err != nil {
		return result{}, err
	}
	if finish != nil {
		finish()
	}
	return res, nil
}

// checkViolations fails a run whose self-verification layer reported
// violations.
func checkViolations(s *sim.Simulator) error {
	if chk := s.Checker(); chk != nil && chk.Total() > 0 {
		return fmt.Errorf("%s", chk.Report())
	}
	return nil
}

// SweepE runs the configuration over every benchmark, fanning the runs
// across the worker pool, and returns them in paper order. The first error
// (in paper order) is returned with a nil slice.
func (r *Runner) SweepE(cfg sim.Config) ([]*stats.Run, error) {
	return sweep(r, cfg, r.RunE)
}

// sweep resolves run(cfg, bench) for every benchmark in paper order,
// fanned across the worker pool (strictly sequential with Workers == 1,
// stopping at the first error). The first error in paper order is
// returned with a nil slice.
func sweep[T any](r *Runner, cfg sim.Config, run func(sim.Config, string) (T, error)) ([]T, error) {
	names := workload.Names()
	out := make([]T, len(names))
	errs := make([]error, len(names))
	if r.workers() <= 1 {
		for i, b := range names {
			if out[i], errs[i] = run(cfg, b); errs[i] != nil {
				return nil, errs[i]
			}
		}
		return out, nil
	}
	var wg sync.WaitGroup
	for i, b := range names {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			out[i], errs[i] = run(cfg, b)
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AvgEffRateE returns the mean effective fetch rate of the configuration
// across all benchmarks.
func (r *Runner) AvgEffRateE(cfg sim.Config) (float64, error) {
	runs, err := r.SweepE(cfg)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, run := range runs {
		sum += run.EffFetchRate()
	}
	return sum / float64(len(runs)), nil
}

// CachedKeys lists memoized runs (for tests). In-flight keys are included;
// completed and failed runs are not distinguished.
func (r *Runner) CachedKeys() []string {
	r.mu.Lock()
	keys := make([]string, 0, len(r.runs))
	for k := range r.runs {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// RunAll executes the experiments against the runner, fanning them across
// the worker pool, and calls emit with each experiment's output in the
// given order (streaming: an experiment is emitted as soon as it and all
// its predecessors have finished). Panics inside an experiment are
// converted to errors; emission stops at the first failed experiment and
// its error is returned, joined with any later failures. With Workers == 1
// the experiments run strictly sequentially, and later experiments are not
// started after a failure.
func RunAll(r *Runner, exps []Experiment, emit func(Experiment, string)) error {
	if r.workers() <= 1 {
		for _, e := range exps {
			out, err := runExperiment(r, e)
			if err != nil {
				return err
			}
			emit(e, out)
		}
		return nil
	}
	type result struct {
		done chan struct{}
		out  string
		err  error
	}
	results := make([]*result, len(exps))
	for i, e := range exps {
		res := &result{done: make(chan struct{})}
		results[i] = res
		go func(e Experiment, res *result) {
			defer close(res.done)
			res.out, res.err = runExperiment(r, e)
		}(e, res)
	}
	var errs []error
	for i, res := range results {
		<-res.done
		if res.err != nil {
			errs = append(errs, res.err)
			continue
		}
		if errs == nil {
			emit(exps[i], res.out)
		}
	}
	return errors.Join(errs...)
}

// runExperiment renders one experiment. Simulation failures propagate as
// errors through the experiment bodies; the recover is a backstop for
// programming errors inside a body, so a parallel tcbench fails that
// experiment instead of the process.
func runExperiment(r *Runner, e Experiment) (out string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s: panic: %v", e.ID, p)
		}
	}()
	out, err = e.Run(r)
	if err != nil {
		return "", fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	return out, nil
}
