package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"tracecache/internal/experiments"
	"tracecache/internal/journal"
	"tracecache/internal/stats"
)

// cpuLayers are the packages whose CPU share the traced run reports.
var cpuLayers = []string{"exec", "engine", "fetch", "core", "bpred", "cache", "sim", "trace", "sampling"}

// tracedRun is the separate traced run: an untraced pass and a traced
// pass of half the time each (their throughput ratio is the tracing
// overhead), a CPU profile over the traced pass bucketed by package, and
// the layer-kernel pass over the workload's own recorded streams. Spans
// and the profile are written under out.
func tracedRun(inst instance, name string, o *options, seconds float64, t *tally, out string) (map[string]metric, map[string]int, error) {
	base, err := inst.measure(o, seconds/2, nil, t)
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	h0 := readHostCounters()
	smp, err := inst.measure(o, seconds/2, tr, t)
	h1 := readHostCounters()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	shares := layerShares(p, "tracecache/")

	var streams []stream
	tr.do(0, "setup.record_streams", "", func() { streams, err = inst.streams(o) })
	if err != nil {
		return nil, nil, fmt.Errorf("streams: %w", err)
	}
	kern, samples := kernelPass(o, streams, tr, t)

	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", name, o.seed))
	if err := tr.write(stem + "-spans.json"); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(stem+"-cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}

	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, l := range cpuLayers {
		set(l+".cpu_share", shares[l], "ratio")
	}
	for _, k := range []struct{ name, unit string }{
		{"exec.step_ns", "ns"}, {"engine.dispatch_ns", "ns"},
		{"fetch.replay_ns_per_inst", "ns"},
		{"core.fill_retire_ns", "ns"}, {"core.tc_hit_rate", "ratio"},
		{"core.avg_segment_len", "insts"}, {"core.promoted_frac", "ratio"},
		{"bpred.predict_update_ns", "ns"},
		{"cache.access_ns", "ns"}, {"cache.l1i_miss_rate", "ratio"}, {"cache.l1d_miss_rate", "ratio"},
		{"trace.decode_ns_per_rec", "ns"}, {"trace.encode_ns_per_rec", "ns"}, {"trace.bytes_per_inst", "B/inst"},
		{"workload.generate_ms", "ms"}, {"checkpoint.capture_ms", "ms"}, {"checkpoint.restore_ms", "ms"},
		{"sampling.run_ms_per_point", "ms"}, {"sampling.detailed_frac", "ratio"},
		{"runner.hit_overhead_us", "us"},
		{"resultstore.get_ms_p50", "ms"}, {"resultstore.put_ms_p50", "ms"},
		{"journal.append_us", "us"},
	} {
		set(k.name, kern[k.name], k.unit)
	}

	// Front-end and predictor rates over the points the workload
	// simulated (or, where it exposes no per-point statistics, over the
	// kernel replays of its streams).
	set("fetch.eff_rate", kern["fetch.eff_rate"], "inst/fetch")
	set("fetch.wrong_path_frac", kern["fetch.wrong_path_frac"], "ratio")
	set("bpred.cond_mispredict_rate", kern["bpred.cond_mispredict_rate"], "ratio")
	if len(smp.runs) > 0 {
		var agg stats.Run
		for _, run := range smp.runs {
			agg.Accumulate(run)
		}
		set("fetch.eff_rate", agg.EffFetchRate(), "inst/fetch")
		set("fetch.wrong_path_frac", ratio(agg.FetchedWrong, agg.FetchedCorrect+agg.FetchedWrong), "ratio")
		set("bpred.cond_mispredict_rate", agg.CondMispredictRate(), "ratio")
	}

	// Runner metrics from the resolved points' lifecycle events. Point
	// and queue percentiles cover simulated points only; store-served
	// points count toward the slot time and their own share.
	var wall, queue []float64
	var busy, simWall time.Duration
	var store int
	for _, ev := range smp.events {
		busy += ev.Wall
		if ev.Provenance == stats.ProvStore {
			store++
			continue
		}
		wall = append(wall, ms(ev.Wall))
		queue = append(queue, ms(ev.QueueWait))
		simWall += ev.Wall
	}
	requests := len(smp.events) + smp.memoEvents
	set("runner.point_ms_p50", percentile(wall, 50), "ms")
	set("runner.point_ms_p95", percentile(wall, 95), "ms")
	set("runner.queue_wait_ms_p50", percentile(queue, 50), "ms")
	set("runner.busy_frac", busy.Seconds()/(float64(smp.workers)*smp.freshWall.Seconds()), "ratio")
	set("runner.memo_hit_frac", float64(smp.memoEvents)/float64(max(requests, 1)), "ratio")
	set("runner.store_served_frac", float64(store)/float64(max(requests, 1)), "ratio")
	set("sim.ns_per_inst", float64(simWall.Nanoseconds())/float64(max(smp.insts, 1)), "ns")

	// Layers the workload does not reach read 0.
	for _, k := range []struct{ name, unit string }{
		{"resultstore.hit_frac", "ratio"}, {"resultstore.quarantined", "count"},
		{"server.submit_ms_p50", "ms"}, {"server.results_ms_p50", "ms"},
		{"server.status_ms_p50", "ms"}, {"server.coalesced_frac", "ratio"},
	} {
		set(k.name, 0, k.unit)
	}
	// Workload-specific measurements override the defaults above.
	for k, v := range smp.layer {
		mt, ok := m[k]
		if !ok {
			return nil, nil, fmt.Errorf("workload reported unknown layer metric %q", k)
		}
		mt.Value = v
		m[k] = mt
	}

	set("host.gc_cpu_frac", gcFrac(h0, h1), "ratio")
	set("host.alloc_bytes_per_inst", float64(h1.allocBytes-h0.allocBytes)/float64(max(smp.insts, 1)), "B/inst")
	set("bench.trace_overhead_frac", median(base.pointsPerS)/median(smp.pointsPerS)-1, "ratio")
	finite(m)

	samples["runner.point_ms_p50"] = len(wall)
	samples["runner.point_ms_p95"] = len(wall)
	samples["runner.queue_wait_ms_p50"] = len(queue)
	for k, n := range smp.layerSamples {
		samples[k] = n
	}
	samples["spans"] = tr.count()
	samples["profile_samples"] = len(p.samples)
	samples["streams"] = len(streams)
	return m, samples, nil
}

// journalEvent rebuilds the lifecycle event a journal record stands for
// (service-mix points run inside the server, whose runners journal them).
func journalEvent(rec journal.Record) experiments.RunEvent {
	return experiments.RunEvent{
		Phase:      experiments.RunDone,
		Key:        rec.Config + "/" + rec.Benchmark,
		Config:     rec.Config,
		Benchmark:  rec.Benchmark,
		Provenance: rec.Provenance,
		Memoized:   rec.Provenance == stats.ProvMemoized,
		Wall:       time.Duration(rec.WallMillis * float64(time.Millisecond)),
		QueueWait:  time.Duration(rec.QueueWaitMillis * float64(time.Millisecond)),
	}
}
