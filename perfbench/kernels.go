package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tracecache"
	"tracecache/internal/bpred"
	"tracecache/internal/cache"
	"tracecache/internal/checkpoint"
	"tracecache/internal/config"
	"tracecache/internal/core"
	"tracecache/internal/engine"
	"tracecache/internal/exec"
	"tracecache/internal/isa"
	"tracecache/internal/journal"
	"tracecache/internal/program"
	"tracecache/internal/resultstore"
	"tracecache/internal/sampling"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/trace"
	"tracecache/internal/workload"
)

// stream is one recorded retired stream: the input of the layer-kernel
// pass.
type stream struct {
	hdr  trace.Header
	recs []trace.Rec
	prog *program.Program
	// memAddr holds each record's load/store effective address (0 for
	// other instructions), derived once by stepping the architectural
	// state along the stream; the engine and cache kernels consume it.
	memAddr []uint64
}

// recordStreams records each benchmark's committed stream at the given
// budgets and loads the recordings.
func recordStreams(o *options, benches []string, warmup, insts uint64) ([]stream, error) {
	dir, err := os.MkdirTemp(o.dir, "streams-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := record(o, dir, benches, warmup, insts); err != nil {
		return nil, err
	}
	return loadStreams(dir)
}

// record installs each benchmark's committed stream in dir through a
// replay-mode Runner, whose first request per benchmark runs detailed with
// the recorder attached. Benchmarks are recorded in waves of o.workers, in
// order, so the schedule (and so the set-up time) does not depend on which
// goroutine reaches the worker pool first.
func record(o *options, dir string, benches []string, warmup, insts uint64) error {
	r := tracecache.NewRunner(warmup, insts)
	r.Workers = o.workers
	r.Replay = true
	r.TraceDir = dir
	for len(benches) > 0 {
		wave := benches[:min(o.workers, len(benches))]
		benches = benches[len(wave):]
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		for i, b := range wave {
			wg.Add(1)
			go func(i int, b string) {
				defer wg.Done()
				_, errs[i] = r.RunE(tracecache.BaselineConfig(), b)
			}(i, b)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("record: %w", err)
		}
	}
	return nil
}

// loadStreams decodes every recording in dir, in file-name order.
func loadStreams(dir string) ([]stream, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.tctrace"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []stream
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		h, recs, err := trace.ReadAll(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		prog, err := workload.SharedProgram(h.Name)
		if err != nil {
			return nil, err
		}
		st := stream{hdr: h, recs: recs, prog: prog, memAddr: make([]uint64, len(recs))}
		arch := exec.NewState(prog)
		for i, rec := range recs {
			info := arch.StepAt(rec.PC)
			st.memAddr[i] = info.MemAddr
			arch.CompactTo(arch.Checkpoint())
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no recordings in %s", dir)
	}
	return out, nil
}

// kernelMinTime is how long each layer kernel repeats its stream pass, so
// short streams still give a stable per-operation time.
const kernelMinTime = 300 * time.Millisecond

// nsPerOp runs pass (which reports the operations it did) until minTime
// has elapsed, at least once, and returns nanoseconds per operation.
func nsPerOp(minTime time.Duration, pass func() int) float64 {
	var ops int
	start := time.Now()
	for ops == 0 || time.Since(start) < minTime {
		ops += pass()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(max(ops, 1))
}

// kernelPass feeds each inner layer's exported API with the workload's
// recorded streams and returns per-layer values keyed by metric name,
// with the sample count behind each median. Every kernel runs under its
// own span.
func kernelPass(o *options, streams []stream, tr *tracer, t *tally) (map[string]float64, map[string]int) {
	out := make(map[string]float64)
	counts := make(map[string]int)
	root := tr.begin(0, "kernels", "")
	defer tr.end(root)
	var totalRecs int
	for _, s := range streams {
		totalRecs += len(s.recs)
	}
	best := config.Best()

	// exec: step the architectural state along the stream with the
	// detailed machine's checkpoint window (one undo mark per in-flight
	// instruction, released at retirement).
	tr.do(root, "kernel.exec", "", func() {
		window := engine.DefaultConfig().Window()
		out["exec.step_ns"] = nsPerOp(kernelMinTime, func() int {
			for _, s := range streams {
				st := exec.NewState(s.prog)
				ring := make([]exec.Snapshot, window)
				for i, rec := range s.recs {
					st.StepAt(rec.PC)
					snap := st.Checkpoint()
					if i >= window {
						st.ReleaseBefore(ring[i%window])
					}
					ring[i%window] = snap
				}
			}
			return totalRecs
		})
	})

	// engine: dispatch the stream into the out-of-order core (renaming
	// through the last producer of each register), tick, retire in order.
	tr.do(root, "kernel.engine", "", func() {
		out["engine.dispatch_ns"] = nsPerOp(kernelMinTime, func() int {
			for _, s := range streams {
				engineKernel(s)
			}
			return totalRecs
		})
	})

	// core: the fill unit building segments into the trace cache, under
	// the paper's best machine (promotion + cost-regulated packing).
	tr.do(root, "kernel.core", "", func() {
		var fs core.FillStats
		out["core.fill_retire_ns"] = nsPerOp(kernelMinTime, func() int {
			fs = core.FillStats{}
			for _, s := range streams {
				tc, err := core.NewTraceCache(best.TC)
				if err != nil {
					t.fail("kernel core: %v", err)
					return totalRecs
				}
				fu := core.NewFillUnit(best.Fill, tc)
				for _, rec := range s.recs {
					fu.Retire(rec.PC, s.prog.Code[rec.PC], rec.Taken)
				}
				st := fu.Stats()
				fs.Segments += st.Segments
				fs.InstsWritten += st.InstsWritten
				fs.Promotions += st.Promotions
				fs.Branches += st.Branches
			}
			return totalRecs
		})
		out["core.avg_segment_len"] = fs.AvgSegmentLen()
		out["core.promoted_frac"] = ratio(fs.Promotions, fs.Branches)
	})

	// bpred: the hybrid predictor and the tree multiple-branch predictor
	// predicting and training on every conditional branch.
	tr.do(root, "kernel.bpred", "", func() {
		out["bpred.predict_update_ns"] = nsPerOp(kernelMinTime, func() int {
			n := 0
			for _, s := range streams {
				h := bpred.NewHybrid()
				tree := bpred.NewTreeMBP(best.TreeEntries)
				var hist uint64
				for _, rec := range s.recs {
					if rec.Kind != trace.KindCond {
						continue
					}
					_, hc := h.Predict(rec.PC, hist)
					h.Update(hc, rec.Taken)
					_, tc := tree.Predict(rec.PC, rec.PC, hist, 0, 0)
					tree.Update(tc, rec.Taken)
					hist <<= 1
					if rec.Taken {
						hist |= 1
					}
					n++
				}
			}
			return n
		})
	})

	// cache: instruction fetch per line change and every data access,
	// through the machine's L1I/L1D/L2 hierarchy.
	tr.do(root, "kernel.cache", "", func() {
		var l1i, l1d cache.Stats
		out["cache.access_ns"] = nsPerOp(kernelMinTime, func() int {
			n := 0
			l1i, l1d = cache.Stats{}, cache.Stats{}
			for _, s := range streams {
				hier, err := newHierarchy(best)
				if err != nil {
					t.fail("kernel cache: %v", err)
					return 1
				}
				lastLine := ^uint64(0)
				for i, rec := range s.recs {
					addr := isa.Addr(rec.PC)
					if line := hier.L1I.LineAddr(addr); line != lastLine {
						hier.FetchInst(addr)
						lastLine = line
						n++
					}
					if in := s.prog.Code[rec.PC]; in.IsLoad() || in.IsStore() {
						hier.AccessData(s.memAddr[i])
						n++
					}
				}
				addStats(&l1i, hier.L1I.Stats())
				addStats(&l1d, hier.L1D.Stats())
			}
			return n
		})
		out["cache.l1i_miss_rate"] = l1i.MissRate()
		out["cache.l1d_miss_rate"] = l1d.MissRate()
	})

	// trace: encode each stream into the .tctrace format and decode it
	// back.
	var encoded [][]byte
	tr.do(root, "kernel.trace", "", func() {
		out["trace.encode_ns_per_rec"] = nsPerOp(kernelMinTime, func() int {
			encoded = encoded[:0]
			for _, s := range streams {
				var buf bytes.Buffer
				w, err := trace.NewWriter(&buf, s.hdr)
				if err != nil {
					t.fail("kernel trace: %v", err)
					return totalRecs
				}
				for _, rec := range s.recs {
					w.Append(rec)
				}
				if err := w.Close(); err != nil {
					t.fail("kernel trace: %v", err)
				}
				encoded = append(encoded, buf.Bytes())
			}
			return totalRecs
		})
		var bytesTotal int
		for _, e := range encoded {
			bytesTotal += len(e)
		}
		out["trace.bytes_per_inst"] = float64(bytesTotal) / float64(max(totalRecs, 1))
		out["trace.decode_ns_per_rec"] = nsPerOp(kernelMinTime, func() int {
			for _, e := range encoded {
				if _, _, err := trace.ReadAll(e); err != nil {
					t.fail("kernel trace decode: %v", err)
				}
			}
			return totalRecs
		})
	})

	// fetch: front-end replay of the streams under the best machine (the
	// whole front end: fetch engine, trace cache, fill unit, predictors,
	// L1I).
	var replayed []*stats.Run
	tr.do(root, "kernel.fetch", "", func() {
		var tcs core.TraceCacheStats
		out["fetch.replay_ns_per_inst"] = nsPerOp(kernelMinTime, func() int {
			replayed = replayed[:0]
			tcs = core.TraceCacheStats{}
			for _, s := range streams {
				cfg := best
				cfg.FastForwardInsts = s.hdr.FastForwardInsts
				cfg.WarmupInsts = s.hdr.WarmupInsts
				cfg.MaxInsts = s.hdr.MeasureInsts
				rp, err := sim.NewReplayer(cfg, s.prog)
				if err != nil {
					t.fail("kernel fetch: %v", err)
					return totalRecs
				}
				run, err := rp.ReplayRecords(s.hdr, s.recs)
				if err != nil {
					t.fail("kernel fetch: %v", err)
					return totalRecs
				}
				replayed = append(replayed, run)
				st := rp.TraceCache().Stats()
				tcs.Lookups += st.Lookups
				tcs.Hits += st.Hits
			}
			return totalRecs
		})
		out["core.tc_hit_rate"] = ratio(tcs.Hits, tcs.Lookups)
	})
	var agg stats.Run
	for _, run := range replayed {
		agg.Accumulate(run)
	}
	out["fetch.eff_rate"] = agg.EffFetchRate()
	out["fetch.wrong_path_frac"] = ratio(agg.FetchedWrong, agg.FetchedCorrect+agg.FetchedWrong)
	out["bpred.cond_mispredict_rate"] = agg.CondMispredictRate()

	// resultstore and journal: persist the replayed points' results and
	// their journal records.
	tr.do(root, "kernel.resultstore", "", func() {
		get, put, err := storeKernel(o, best, replayed)
		if err != nil {
			t.fail("kernel resultstore: %v", err)
		}
		out["resultstore.get_ms_p50"] = median(get)
		out["resultstore.put_ms_p50"] = median(put)
		counts["resultstore.get_ms_p50"], counts["resultstore.put_ms_p50"] = len(get), len(put)
	})
	tr.do(root, "kernel.journal", "", func() {
		us, err := journalKernel(o, replayed)
		if err != nil {
			t.fail("kernel journal: %v", err)
		}
		out["journal.append_us"] = us
	})

	// workload and checkpoint: program generation, and capturing and
	// restoring the architectural checkpoint of a fast-forward prefix.
	tr.do(root, "kernel.workload", "", func() {
		var gen, capt, rest []float64
		for _, s := range streams {
			prof, _ := workload.ByName(s.hdr.Name)
			t0 := time.Now()
			prog, err := prof.Generate()
			gen = append(gen, ms(time.Since(t0)))
			if err != nil {
				t.fail("kernel workload: %v", err)
				continue
			}
			t0 = time.Now()
			cp := checkpoint.Capture(prog, mixFFwdPool[len(mixFFwdPool)-1])
			capt = append(capt, ms(time.Since(t0)))
			st := exec.NewState(prog)
			t0 = time.Now()
			if err := cp.Restore(st); err != nil {
				t.fail("kernel checkpoint: %v", err)
			}
			rest = append(rest, ms(time.Since(t0)))
		}
		out["workload.generate_ms"] = median(gen)
		out["checkpoint.capture_ms"] = median(capt)
		out["checkpoint.restore_ms"] = median(rest)
		counts["workload.generate_ms"], counts["checkpoint.capture_ms"], counts["checkpoint.restore_ms"] = len(gen), len(capt), len(rest)
	})

	// runner: RunE latency on an already-resolved point.
	tr.do(root, "kernel.runner", "", func() {
		r := tracecache.NewRunner(1_000, 1_000)
		r.Workers = 1
		bench := streams[0].hdr.Name
		if _, err := r.RunE(tracecache.BaselineConfig(), bench); err != nil {
			t.fail("kernel runner: %v", err)
			return
		}
		cfg := tracecache.BaselineConfig()
		out["runner.hit_overhead_us"] = nsPerOp(kernelMinTime/3, func() int {
			for i := 0; i < 1000; i++ {
				if _, err := r.RunE(cfg, bench); err != nil {
					t.fail("kernel runner: %v", err)
					return 1000
				}
			}
			return 1000
		}) / 1e3
	})

	// sampling: one sampled point per stream benchmark, at the
	// service-mix schedule.
	tr.do(root, "kernel.sampling", "", func() {
		var wall []float64
		var detailed, total uint64
		params, err := sim.ParseSamplingSpec(mixSchedule + ":1")
		if err != nil {
			t.fail("kernel sampling: %v", err)
			return
		}
		for _, s := range streams {
			cfg := tracecache.BaselineConfig()
			cfg.MaxInsts = mixMeasure
			cfg.Sampling = params
			t0 := time.Now()
			sm, err := sim.New(cfg, s.prog)
			if err != nil {
				t.fail("kernel sampling: %v", err)
				continue
			}
			res, err := sampling.Run(sm)
			wall = append(wall, ms(time.Since(t0)))
			if err != nil || len(res.Violations) > 0 {
				t.fail("kernel sampling: audit: %v (%d violations)", err, len(res.Violations))
				continue
			}
			detailed += detailedInsts(res.Sampled)
			total += res.Sampled.TotalInsts
		}
		out["sampling.run_ms_per_point"] = median(wall)
		counts["sampling.run_ms_per_point"] = len(wall)
		out["sampling.detailed_frac"] = ratio(detailed, total)
	})
	return out, counts
}

// detailedInsts is the detailed (warmup plus measured) share of a sampled
// run's committed extent.
func detailedInsts(s *stats.Sampled) uint64 {
	return uint64(len(s.Windows)) * (s.WindowInsts + s.WarmupInsts)
}

// engineKernel drives one stream through a fresh execution core.
func engineKernel(s stream) {
	hier, err := newHierarchy(config.Best())
	if err != nil {
		return
	}
	cfg := engine.DefaultConfig()
	eng := engine.New(cfg, hier)
	const noProducer = ^uint64(0)
	var rename [isa.NumRegs]uint64
	for i := range rename {
		rename[i] = noProducer
	}
	const width = 16
	var srcs []isa.Reg
	var seqs []uint64
	var head uint64
	next := 0
	for cycle := uint64(0); next < len(s.recs) || eng.InFlight() > 0; cycle++ {
		for n := 0; n < width && eng.InFlight() > 0 && eng.IsDone(head); n++ {
			eng.Retire(head)
			head++
		}
		for n := 0; n < width && next < len(s.recs) && eng.SpaceFor(1); n++ {
			in := s.prog.Code[s.recs[next].PC]
			srcs = in.SrcRegs(srcs[:0])
			seqs = seqs[:0]
			for _, r := range srcs {
				if p := rename[r]; p != noProducer {
					seqs = append(seqs, p)
				}
			}
			seq := eng.Dispatch(seqs, in.IsLoad(), in.IsStore(), s.memAddr[next], in.Latency())
			if rd, ok := in.WritesReg(); ok {
				rename[rd] = seq
			}
			next++
		}
		eng.Tick(cycle)
	}
}

// newHierarchy builds the configuration's cache hierarchy (the geometry
// sim.New builds: 4-way L1s, 8-way L2).
func newHierarchy(c sim.Config) (*cache.Hierarchy, error) {
	l1i, err := cache.New(cache.Config{Name: "l1i", SizeBytes: c.ICacheBytes, LineBytes: c.LineBytes, Assoc: 4})
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cache.Config{Name: "l1d", SizeBytes: c.L1DBytes, LineBytes: c.LineBytes, Assoc: 4})
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cache.Config{Name: "l2", SizeBytes: c.L2Bytes, LineBytes: c.LineBytes, Assoc: 8})
	if err != nil {
		return nil, err
	}
	return &cache.Hierarchy{L1I: l1i, L1D: l1d, L2: l2}, nil
}

func addStats(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Misses += s.Misses
}

// storeKernel puts every run into a fresh result store and reads each
// back, returning per-call latencies in milliseconds. A read that misses
// or returns different statistics is an error.
func storeKernel(o *options, cfg sim.Config, runs []*stats.Run) (get, put []float64, err error) {
	dir, err := os.MkdirTemp(o.dir, "store-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := resultstore.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]resultstore.Key, len(runs))
	for i, run := range runs {
		keys[i] = resultstore.Key{ConfigHash: fmt.Sprintf("%s-%d", cfg.Hash(), i), Benchmark: run.Benchmark, Mode: resultstore.ModeReplay}
		t0 := time.Now()
		err := st.Put(&resultstore.Entry{Version: resultstore.FormatVersion, Key: keys[i], Config: cfg.Name, Run: run})
		put = append(put, ms(time.Since(t0)))
		if err != nil {
			return get, put, err
		}
	}
	for i, run := range runs {
		t0 := time.Now()
		e, err := st.Get(keys[i])
		get = append(get, ms(time.Since(t0)))
		if err != nil {
			return get, put, err
		}
		if e == nil || runDigest(e.Run) != runDigest(run) {
			return get, put, fmt.Errorf("store read-back of %s differs", keys[i].Benchmark)
		}
	}
	return get, put, nil
}

// journalKernel appends one journal record per run, many times over, to
// a fresh journal file and returns the mean append latency in
// microseconds.
func journalKernel(o *options, runs []*stats.Run) (float64, error) {
	path := filepath.Join(o.dir, "kernel-journal.jsonl")
	defer os.Remove(path)
	w, err := journal.OpenFile(path)
	if err != nil {
		return 0, err
	}
	recs := make([]journal.Record, len(runs))
	for i, run := range runs {
		recs[i] = journal.FromRun(run)
	}
	var appendErr error
	ns := nsPerOp(kernelMinTime/3, func() int {
		for _, rec := range recs {
			if err := w.Append(rec); err != nil && appendErr == nil {
				appendErr = err
			}
		}
		return len(recs)
	})
	if err := w.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	return ns / 1e3, appendErr
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
