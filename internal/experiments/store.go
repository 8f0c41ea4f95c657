package experiments

import (
	"tracecache/internal/resultstore"
	"tracecache/internal/stats"
)

// storeKey addresses one point in the persistent store: the full
// configuration hash of the resolved request (final budgets and schedule
// included, matching what stats.Meta.ConfigHash records), the benchmark,
// and the fidelity mode.
func storeKey(q request, mode string) resultstore.Key {
	return resultstore.Key{ConfigHash: q.cfg.Hash(), Benchmark: q.bench, Mode: mode}
}

// fromStore is the persistent-store tier: a prior process (or job) that
// resolved this exact point left its result on disk, and it is served
// verbatim. Mode matching is fidelity-preserving (DESIGN.md §11): a
// detailed request accepts only a detailed entry, a Replay-mode request
// also a replay entry (either class it could itself have produced), and a
// sampled request only a sampled one. Checked runs must actually simulate,
// so Check bypasses the store. Store corruption is logged and treated as a
// miss — the point re-simulates.
func (r *Runner) fromStore(q request) (result, bool) {
	if r.Store == nil || r.Check {
		return result{}, false
	}
	modes := []string{resultstore.ModeDetailed}
	switch {
	case q.sampled:
		modes = []string{resultstore.ModeSampled}
	case r.Replay:
		modes = []string{resultstore.ModeReplay, resultstore.ModeDetailed}
	}
	for _, mode := range modes {
		e, err := r.Store.Get(storeKey(q, mode))
		if err != nil {
			r.logf("result store: %v\n", err)
			continue
		}
		if e != nil && e.Run != nil && (e.Sampled != nil || !q.sampled) {
			return result{run: e.Run, sampled: e.Sampled, provenance: stats.ProvStore}, true
		}
	}
	return result{}, false
}

// storeModeOf maps a run's provenance to its store fidelity mode.
func storeModeOf(provenance string) string {
	switch provenance {
	case stats.ProvReplay:
		return resultstore.ModeReplay
	case stats.ProvSampled:
		return resultstore.ModeSampled
	default:
		// Cold and checkpoint-fork runs are both full detailed
		// measurements; the checkpoint only changed who executed the
		// functional prefix.
		return resultstore.ModeDetailed
	}
}

// storePut persists one completed result. It is a no-op without a store,
// for failed or store-served results, and for checked runs (their
// purpose is to distrust cached numbers, so they neither read nor seed
// the store). Persistence errors are logged, never fatal: the store is a
// cache, and losing a put only costs a future re-simulation.
func (r *Runner) storePut(q request, res result) {
	if r.Store == nil || r.Check || res.run == nil || res.provenance == stats.ProvStore {
		return
	}
	e := &resultstore.Entry{
		Key:     storeKey(q, storeModeOf(res.provenance)),
		Config:  q.cfg.Name,
		Run:     res.run,
		Sampled: res.sampled,
	}
	if err := r.Store.Put(e); err != nil {
		r.logf("result store: %v\n", err)
	}
}
