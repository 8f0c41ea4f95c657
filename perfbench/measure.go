package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tracecache/internal/stats"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it. It
// always returns one of the samples, never an interpolation, so the value
// reported is a latency some operation actually had. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// median is the midpoint of xs (the mean of the two middle samples when
// the count is even). NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts operations attempted and failed. An operation is one unit
// the benchmark checks: a sweep point, a job, an HTTP exchange. The first
// few failure descriptions are kept for the report. Safe for concurrent
// use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

const maxReasons = 8

// record counts one operation; ok false counts it as failed for the
// given reason.
func (t *tally) record(ok bool, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, reason)
		}
	}
}

// fail counts one failed operation.
func (t *tally) fail(format string, args ...any) { t.record(false, fmt.Sprintf(format, args...)) }

// counts returns attempted, failed and the kept failure reasons.
func (t *tally) counts() (attempted, failed int, reasons []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, slices.Clone(t.reasons)
}

// errorRate is failed / attempted (0 when nothing was attempted).
func (t *tally) errorRate() float64 {
	a, f, _ := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// runDigest fingerprints a point's simulated statistics. Provenance
// metadata (wall time, host, timestamps, provenance class) is stripped
// first, so two runs digest equal exactly when every simulated counter
// agrees.
func runDigest(run *stats.Run) string {
	c := *run
	c.Meta = nil
	data, err := json.Marshal(&c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

// textDigest is the SHA-256 of a rendered output, in hex (the form
// sha256sum prints).
func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkDigests compares every digest got against the reference and
// records one operation per reference point: a point whose digest differs
// or that is missing fails, and so does any point the reference does not
// know.
func checkDigests(t *tally, what string, want, got map[string]string) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		switch {
		case !ok:
			t.fail("%s %s: point missing", what, k)
		case g != want[k]:
			t.fail("%s %s: digest %s, reference %s", what, k, g, want[k])
		default:
			t.record(true, "")
		}
	}
	extra := make([]string, 0)
	for k := range got {
		if _, ok := want[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		t.fail("%s %s: point not in the reference", what, k)
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status. NaN where procfs is unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kib, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kib / 1024
				}
			}
		}
	}
	return math.NaN()
}

// hostCounters snapshots the Go runtime's cumulative GC CPU time, total
// CPU time and allocated bytes, so a measured interval can be expressed
// as a GC CPU share and an allocation volume.
type hostCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readHostCounters() hostCounters {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	var h hostCounters
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		h.totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		h.allocBytes = samples[2].Value.Uint64()
	}
	return h
}

// gcFrac is the share of CPU time the garbage collector took between the
// two snapshots.
func gcFrac(a, b hostCounters) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}
