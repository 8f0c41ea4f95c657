package experiments

import (
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/metrics"
	"tracecache/internal/resultstore"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// TestMixedModePipeline drives every tier of one runner (Store + Replay +
// FastForward, plus sampled requests) and pins the provenance each tier
// reports, the event shape of executed and memoized requests, and the
// full counter partition.
func TestMixedModePipeline(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	newRunner := func() *Runner {
		r := NewRunner(1_000, 12_000)
		r.Workers = 1
		r.FastForward = 2_000
		r.Store = store
		return r
	}
	// A point simulated by an earlier runner is in the store, not the memo.
	if _, err := newRunner().RunE(config.Packing(), "li"); err != nil {
		t.Fatal(err)
	}

	r := newRunner()
	r.Replay = true
	r.Sampling = sim.SamplingParams{WindowInsts: 1_000, PeriodInsts: 4_000, WarmupInsts: 200, Seed: 1}
	m := InstrumentRunner(metrics.NewRegistry())
	r.Metrics = m
	log := &eventLog{}
	r.OnRun = log.listen

	steps := []struct {
		cfg     sim.Config
		bench   string
		sampled bool
		want    string
	}{
		{config.Baseline(), "compress", false, stats.ProvCold},                      // records the stream
		{config.Packing(), "compress", false, stats.ProvReplay},                     // front-end-equivalent
		{config.Oracle(config.Best()), "compress", false, stats.ProvCheckpointFork}, // core axis
		{config.Baseline(), "compress", true, stats.ProvSampled},
		{config.Packing(), "li", false, stats.ProvStore},
		{config.Baseline(), "compress", false, stats.ProvMemoized},
		{config.Baseline(), "compress", true, stats.ProvMemoized},
	}
	var wantPhases []RunPhase
	for _, st := range steps {
		var err error
		if st.sampled {
			var sm *stats.Sampled
			sm, err = r.RunSampledE(st.cfg, st.bench)
			if err == nil && !sm.Meta.CheckpointShared {
				t.Errorf("sampled run did not restore the shared checkpoint: %+v", sm.Meta)
			}
		} else {
			_, err = r.RunE(st.cfg, st.bench)
		}
		if err != nil {
			t.Fatalf("%s/%s sampled=%v: %v", st.cfg.Name, st.bench, st.sampled, err)
		}
		if st.want != stats.ProvMemoized {
			wantPhases = append(wantPhases, RunQueued, RunStarted)
		}
		wantPhases = append(wantPhases, RunDone)
	}

	if len(log.evs) != len(wantPhases) {
		t.Fatalf("got %d events, want %d", len(log.evs), len(wantPhases))
	}
	done := 0
	for i, ev := range log.evs {
		if ev.Phase != wantPhases[i] {
			t.Fatalf("event %d phase = %v, want %v", i, ev.Phase, wantPhases[i])
		}
		if ev.Phase != RunDone {
			continue
		}
		st := steps[done]
		done++
		if ev.Provenance != st.want {
			t.Errorf("%s provenance = %q, want %q", ev.Key, ev.Provenance, st.want)
		}
		if ev.Memoized != (st.want == stats.ProvMemoized) || ev.Err != nil || ev.Run == nil {
			t.Errorf("%s done event = %+v", ev.Key, ev)
		}
	}

	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"memo misses", m.MemoMisses.Value(), 5},
		{"memo hits", m.MemoHits.Value(), 2},
		{"runs started", m.RunsStarted.Value(), 5},
		{"runs completed", m.RunsCompleted.Value(), 5},
		{"runs failed", m.RunsFailed.Value(), 0},
		{"cold starts", m.ColdStarts.Value(), 1},
		{"replays", m.Replays.Value(), 1},
		{"checkpoint forks", m.CheckpointForks.Value(), 1},
		{"sampled runs", m.SampledRuns.Value(), 1},
		{"store served", m.StoreServed.Value(), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if m.RunsCompleted.Value() != m.CheckpointForks.Value()+m.ColdStarts.Value()+
		m.Replays.Value()+m.SampledRuns.Value()+m.StoreServed.Value() {
		t.Error("provenance counters do not partition RunsCompleted")
	}
	// Every simulated tier persisted its result (the seeding run's entry
	// plus cold, replay, fork and sampled); the store-served one did not.
	if n, _ := store.Len(); n != 5 {
		t.Errorf("store holds %d entries, want 5", n)
	}
}
