// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed number of seconds, checks every simulated
// output, and prints its metrics as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (bash perfbench/run.sh builds and runs
// it). Workloads: paper-suite, frontend-replay, service-mix; see
// README.md for what each measures and why. --trace 0 reports the
// end-to-end metrics; --trace 1 is the separate traced run, which reports
// the per-layer metrics, writes spans and a CPU profile under --out, and
// reports its own overhead against an untraced pass.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"tracecache/internal/experiments"
	"tracecache/internal/stats"
)

//go:embed reference.json
var referenceJSON []byte

// reference holds the digests of every point's simulated statistics (and,
// for paper-suite, of the rendered tcbench stdout) produced by the code
// the benchmark was defined against. See -write-reference.
type reference struct {
	PaperSuite struct {
		Warmup       uint64            `json:"warmup"`
		Insts        uint64            `json:"insts"`
		StdoutSHA256 string            `json:"stdoutSha256"`
		Points       map[string]string `json:"points"`
	} `json:"paper-suite"`
	FrontendReplay struct {
		Warmup uint64            `json:"warmup"`
		Insts  uint64            `json:"insts"`
		Points map[string]string `json:"points"`
	} `json:"frontend-replay"`
}

func loadReference(data []byte) (*reference, error) {
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if ref.PaperSuite.Warmup != suiteWarmup || ref.PaperSuite.Insts != suiteInsts ||
		ref.FrontendReplay.Warmup != replayWarmup || ref.FrontendReplay.Insts != replayInsts {
		return nil, errors.New("reference.json budgets differ from the benchmark's; regenerate it with -write-reference")
	}
	return &ref, nil
}

// options is one invocation's settings.
type options struct {
	seed    uint64
	workers int
	dir     string // scratch directory for stores, journals, trace dirs
	ref     *reference
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for about seconds (always at least one
	// job), checking outputs into t. tr is nil on untraced passes.
	measure(o *options, seconds float64, tr *tracer, t *tally) (*sample, error)
	// streams returns the workload's own retired streams for the
	// layer-kernel pass (traced runs only).
	streams(o *options) ([]stream, error)
	close()
}

// workloadDef builds a workload. setup does the work timed as setup_s and
// must not lean on process-wide caches, since it runs several times;
// warmUp fills those caches once, untimed, before the first setup.
type workloadDef interface {
	setup(o *options) (instance, error)
	warmUp() error
}

var workloads = map[string]workloadDef{
	"paper-suite":     paperSuite{},
	"frontend-replay": frontendReplay{},
	"service-mix":     serviceMix{},
}

// Setup runs in batches of at least minSetupReps, and more (up to
// maxSetupReps) while the batch took less than setupMinTime, so that a
// set-up of a few milliseconds still gives a steady median. An untraced
// run sets up one batch before and one after the measured interval;
// setup_s is the median over both.
const (
	minSetupReps = 5
	maxSetupReps = 25
	setupMinTime = time.Second
)

// sample is what one measured pass observed.
type sample struct {
	workers int
	// Per-job latencies in milliseconds, split by job kind.
	freshMs, repeatMs []float64
	// Per-fresh-job throughputs (one entry per job where the job is a
	// sweep; one entry for the whole pass on service-mix).
	pointsPerS, minstsPerS []float64

	// For the per-layer report.
	events     []experiments.RunEvent // simulated points' RunDone events
	runs       []*stats.Run           // simulated points' statistics
	freshWall  time.Duration          // summed fresh-job wall time
	insts      uint64                 // simulated instructions
	memoEvents int                    // memo-served requests
	layer      map[string]float64     // workload-specific per-layer values
	// layerSamples is the sample count behind each workload-specific
	// median or percentile in layer.
	layerSamples map[string]int
}

// addPoints accounts one fresh job's simulated points.
func (s *sample) addPoints(events []experiments.RunEvent, runs []*stats.Run, wall time.Duration, insts uint64) {
	for _, ev := range events {
		if ev.Memoized {
			s.memoEvents++
		} else if ev.Err == nil {
			s.events = append(s.events, ev)
		}
	}
	s.runs = append(s.runs, runs...)
	s.freshWall += wall
	s.insts += insts
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-suite, frontend-replay or service-mix")
	seed := fs.Uint64("seed", 1, "workload seed: orders and varies the generated inputs")
	seconds := fs.Float64("seconds", 20, "seconds to measure")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for spans, profiles and the full report")
	writeRef := fs.String("write-reference", "", "regenerate the reference digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	workers := runtime.NumCPU()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := &options{seed: *seed, workers: workers, dir: dir}

	if *writeRef != "" {
		if err := writeReference(o, *writeRef); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	o.ref, err = loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	def, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper-suite, frontend-replay or service-mix)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	res, report, err := runWorkload(def, *name, o, *seconds, *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report["host"] = hostFacts(o, *name, *seconds, *traced == 1)
	rep, _ := json.Marshal(report)
	fmt.Fprintf(stdout, "report: %s\n", rep)
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *traced))
	if err := os.WriteFile(path, append(rep, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// checkCheckout refuses to run outside a repository checkout: the
// benchmark drives the simulator built from the surrounding tree.
func checkCheckout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the repository root (no go.mod here)")
	}
	if _, err := os.Stat(filepath.Join("internal", "sim")); err != nil {
		return errors.New("run from the repository root (no internal/sim here)")
	}
	return nil
}

// runWorkload sets the workload up several times (keeping the last
// instance), measures it, and assembles the result line and the report.
func runWorkload(def workloadDef, name string, o *options, seconds float64, traced bool, out string) (*result, map[string]any, error) {
	if err := def.warmUp(); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	setupS, inst, err := setUps(def, o)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()

	t := &tally{}
	report := map[string]any{"workload": name, "setupSamples": len(setupS)}
	res := &result{Metrics: make(map[string]metric)}
	if !traced {
		debug.FreeOSMemory()
		smp, err := inst.measure(o, seconds, nil, t)
		if err != nil {
			return nil, nil, err
		}
		rss := peakRSSMiB()
		// A second batch of set-ups after the measured interval, so
		// setup_s samples the host at both ends of the run rather than
		// only in the second before measuring.
		after, last, err := setUps(def, o)
		if err != nil {
			return nil, nil, err
		}
		last.close()
		setupS = append(setupS, after...)
		report["setupSamples"] = len(setupS)
		m := endToEnd(smp, median(setupS))
		m["peak_rss_mib"] = metric{rss, "MiB"}
		for _, k := range sortedKeys(m) {
			if v := m[k].Value; math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
				t.fail("metric %s: no measurement", k)
			}
		}
		finite(m)
		res.Metrics = m
		report["samples"] = map[string]int{
			"fresh_job_ms":     len(smp.freshMs),
			"repeat_job_ms":    len(smp.repeatMs),
			"points_per_s":     len(smp.pointsPerS),
			"sim_minsts_per_s": len(smp.minstsPerS),
		}
	} else {
		layers, samples, err := tracedRun(inst, name, o, seconds, t, out)
		if err != nil {
			return nil, nil, err
		}
		layers["error_rate"] = metric{t.errorRate(), "ratio"}
		res.Metrics = layers
		report["samples"] = samples
	}
	a, f, reasons := t.counts()
	res.Attempted, res.Failed = a, f
	res.Correct = f == 0 && a > 0
	report["failures"] = reasons
	report["metrics"] = res.Metrics
	return res, report, nil
}

// setUps sets the workload up at least minSetupReps times, and more (up
// to maxSetupReps) while the set-ups together took less than
// setupMinTime. It returns each set-up's duration in seconds and the last
// instance; the earlier ones are closed.
func setUps(def workloadDef, o *options) ([]float64, instance, error) {
	var setupS []float64
	var inst instance
	var total time.Duration
	for len(setupS) < minSetupReps || (total < setupMinTime && len(setupS) < maxSetupReps) {
		if inst != nil {
			inst.close()
		}
		// Each set-up starts from a collected heap, so set-ups do not
		// pay for each other's garbage.
		runtime.GC()
		start := time.Now()
		in, err := def.setup(o)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		total += d
		setupS = append(setupS, d.Seconds())
		inst = in
	}
	return setupS, inst, nil
}

// endToEnd derives the end-to-end metrics from an untraced pass.
func endToEnd(s *sample, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":           {setupS, "s"},
		"points_per_s":      {median(s.pointsPerS), "1/s"},
		"sim_minsts_per_s":  {median(s.minstsPerS), "Minst/s"},
		"fresh_job_ms_p50":  {percentile(s.freshMs, 50), "ms"},
		"fresh_job_ms_p90":  {percentile(s.freshMs, 90), "ms"},
		"repeat_job_ms_p50": {percentile(s.repeatMs, 50), "ms"},
		"repeat_job_ms_p90": {percentile(s.repeatMs, 90), "ms"},
	}
}

// hostFacts stamps a result with what it was measured on.
func hostFacts(o *options, name string, seconds float64, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goVersion":  runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"sourceHash": sourceHash(),
		"workload":   name,
		"seed":       o.seed,
		"seconds":    seconds,
		"traced":     traced,
		"budgets": map[string]any{
			"paper-suite":     map[string]uint64{"warmup": suiteWarmup, "insts": suiteInsts},
			"frontend-replay": map[string]uint64{"warmup": replayWarmup, "insts": replayInsts},
			"service-mix":     map[string]any{"measureInsts": mixMeasure, "sample": mixSchedule, "ffwdPool": mixFFwdPool},
		},
	}
}

// sourceHash digests the simulator's Go sources (everything outside the
// benchmark's own directory), identifying the code measured when the
// checkout carries no VCS metadata.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == "perfbench" || p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (filepath.Ext(p) == ".go" || filepath.Base(p) == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// finite replaces NaN and infinities (a metric with no samples) by 0 so
// the result line stays valid JSON.
func finite(m map[string]metric) {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
