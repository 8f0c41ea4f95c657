package main

import (
	"encoding/json"
	"errors"
	"os"

	"tracecache"
	"tracecache/internal/experiments"
)

// writeReference regenerates reference.json: one sweep of paper-suite
// (in paper order) and one of frontend-replay, with every point's
// statistics digest and the rendered paper-suite output's SHA-256. Run it
// only on code whose simulated statistics are known good; the benchmark
// then holds later code to them.
func writeReference(o *options, path string) error {
	var ref reference
	if err := (paperSuite{}).warmUp(); err != nil {
		return err
	}
	var log pointLog
	r := tracecache.NewRunner(suiteWarmup, suiteInsts)
	r.Workers = o.workers
	r.OnRun = log.listener()
	exps := tracecache.Experiments()
	outs, _, err := runExperimentSet(r, exps, nil, 0)
	if err != nil {
		return err
	}
	ref.PaperSuite.Warmup, ref.PaperSuite.Insts = suiteWarmup, suiteInsts
	ref.PaperSuite.StdoutSHA256 = textDigest(renderSuite(exps, outs))
	if ref.PaperSuite.Points, err = referenceDigests(log.take()); err != nil {
		return err
	}

	fr := frontendReplay{}
	if err := fr.warmUp(); err != nil {
		return err
	}
	inst, err := fr.setup(o)
	if err != nil {
		return err
	}
	defer inst.close()
	ri := inst.(*replayInstance)
	r = tracecache.NewRunner(replayWarmup, replayInsts)
	r.Workers = o.workers
	r.Replay = true
	r.TraceDir = ri.dir
	r.OnRun = log.listener()
	order := make([]int, len(ri.points))
	for i := range order {
		order[i] = i
	}
	for _, err := range ri.sweep(r, order, nil, 0) {
		if err != nil {
			return err
		}
	}
	ref.FrontendReplay.Warmup, ref.FrontendReplay.Insts = replayWarmup, replayInsts
	if ref.FrontendReplay.Points, err = referenceDigests(log.take()); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// referenceDigests digests one sweep's points; any errored point fails
// the regeneration.
func referenceDigests(events []experiments.RunEvent) (map[string]string, error) {
	got, _, errs := digestPoints(events)
	return got, errors.Join(errs...)
}
