package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tracecache"
	"tracecache/internal/check"
	"tracecache/internal/sim"
	"tracecache/internal/trace"
)

// attachRecorder opens the recording destination and taps the simulator:
// an existing directory receives the content-addressed file name, any
// other path is used verbatim. The returned finish closes the stream and
// reports where it went.
func attachRecorder(s *tracecache.Simulator, path string) (finish func() error, err error) {
	h := s.TraceHeader("tcsim -record")
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, h.FileName())
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := trace.NewWriter(f, h)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.AttachRecorder(w)
	return func() error {
		if err := w.Close(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tcsim: recorded %d instructions to %s\n", w.Count(), path)
		return nil
	}, nil
}

// runReplay replays a recorded stream through the front end only and
// reports the front-end statistics (cycle-domain metrics are undefined
// and rendered as zero; see DESIGN.md §9).
func runReplay(cfg tracecache.Config, prog *tracecache.Program, path, bench, progFile string, asJSON bool, jPath string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
		os.Exit(1)
	}
	rd, err := trace.NewReaderBytes(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcsim: %s: %v\n", path, err)
		os.Exit(1)
	}
	rp, err := sim.NewReplayer(cfg, prog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
		os.Exit(1)
	}
	started := time.Now()
	run, err := rp.Replay(rd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
		os.Exit(1)
	}
	stampMeta(run.Meta, bench, progFile)
	if jPath != "" {
		if err := appendJournal(jPath, run, time.Since(started)); err != nil {
			fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
			os.Exit(1)
		}
	}
	if asJSON {
		out, err := run.Summary().JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Printf("replay of %s (%d recorded instructions)\n\n", path, rd.Count())
	reportParts(run, rp.TraceCache(), rp.FillUnit())
}

// runReplayVerify records the retired stream during a detailed run,
// replays it under the same configuration, and verifies the replayed
// statistics against the detailed ones under the committed fidelity
// envelope (check.CompareReplay). Violations exit non-zero; this is the
// CI smoke for the record/replay backend.
func runReplayVerify(cfg tracecache.Config, prog *tracecache.Program) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
		os.Exit(1)
	}
	s, err := tracecache.NewSimulator(cfg, prog)
	if err != nil {
		fail(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, s.TraceHeader("tcsim -replay-verify"))
	if err != nil {
		fail(err)
	}
	s.AttachRecorder(w)
	det := s.Run()
	if err := w.Close(); err != nil {
		fail(err)
	}
	rd, err := trace.NewReaderBytes(buf.Bytes())
	if err != nil {
		fail(err)
	}
	rp, err := sim.NewReplayer(cfg, prog)
	if err != nil {
		fail(err)
	}
	rep, err := rp.Replay(rd)
	if err != nil {
		fail(err)
	}

	dStats := check.ReplayStats{Run: det}
	rStats := check.ReplayStats{Run: rep}
	if tc := s.TraceCache(); tc != nil {
		st := tc.Stats()
		dStats.TCLookups, dStats.TCHits = st.Lookups, st.Hits
	}
	if tc := rp.TraceCache(); tc != nil {
		st := tc.Stats()
		rStats.TCLookups, rStats.TCHits = st.Lookups, st.Hits
	}
	fmt.Printf("replay-verify %s/%s: %d recorded instructions\n", det.Config, det.Benchmark, w.Count())
	fmt.Printf("  retired        detailed=%d replayed=%d\n", det.Retired, rep.Retired)
	fmt.Printf("  eff fetch rate detailed=%.4f replayed=%.4f\n", det.EffFetchRate(), rep.EffFetchRate())
	fmt.Printf("  mispredict     detailed=%.2f%% replayed=%.2f%%\n",
		100*det.CondMispredictRate(), 100*rep.CondMispredictRate())
	vs := check.CompareReplay(dStats, rStats, check.DefaultReplayTolerance())
	if len(vs) > 0 {
		fmt.Fprintf(os.Stderr, "tcsim: replay-verify FAILED (%d violations)\n", len(vs))
		for _, v := range vs {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("replay-verify passed: replayed statistics within the documented envelope")
}
