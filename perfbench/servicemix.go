package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tracecache/internal/checkpoint"
	"tracecache/internal/journal"
	"tracecache/internal/server"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// The service-mix job stream: sampled sweeps of 2-4 points, each fresh
// job with a new sampling seed and a fast-forward prefix drawn from the
// shared checkpoint pool.
const (
	mixMeasure    = 100_000           // committed-stream extent per sampled point
	mixSchedule   = "1000:10000:1000" // window:period:warmup; the seed is per job
	mixClients    = 2
	mixJobTimeout = 60 * time.Second
)

var (
	mixFFwdPool   = []uint64{20_000, 60_000}
	mixBenchmarks = []string{"compress", "gcc", "go", "li", "m88ksim", "perl"}
	mixConfigs    = []string{"baseline", "promo-t64", "packing", "promo-pack-costreg"}
)

// serviceMix runs an in-process tcserve on loopback with a fresh store
// and journal, quotas disabled, driven by closed-loop clients.
type serviceMix struct{}

func (serviceMix) warmUp() error {
	for _, b := range mixBenchmarks {
		for _, n := range mixFFwdPool {
			if _, err := workload.SharedCheckpoint(b, n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (serviceMix) setup(o *options) (instance, error) {
	// Program and checkpoint warm-up, through the uncached entry points
	// so every repetition pays the full cost.
	for _, b := range mixBenchmarks {
		prof, _ := workload.ByName(b)
		prog, err := prof.Generate()
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", b, err)
		}
		for _, n := range mixFFwdPool {
			checkpoint.Capture(prog, n)
		}
	}
	dir, err := os.MkdirTemp(o.dir, "service-")
	if err != nil {
		return nil, err
	}
	mi := &mixInstance{dir: dir, journal: filepath.Join(dir, "journal.jsonl")}
	if err := mi.start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return mi, nil
}

// start opens a server on the instance's store and journal and serves it
// on a loopback port.
func (mi *mixInstance) start() error {
	srv, err := server.New(server.Options{
		StoreDir:    filepath.Join(mi.dir, "store"),
		JournalPath: mi.journal,
		QuotaRate:   -1,
	})
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	mi.srv, mi.base = srv, "http://"+addr
	return nil
}

// mixEpochRounds is how many rounds one server process serves before the
// pass restarts it on the same store and journal. tcserve keeps every
// job's results in memory, so without restarts the process's memory
// would grow with the jobs a run completes, and a faster simulator would
// read as a memory regression; restarting also exercises the restarted
// daemon serving earlier specs from the store.
const mixEpochRounds = 25

type mixInstance struct {
	srv     *server.Server
	base    string
	dir     string
	journal string
	// passes counts measure calls; each pass draws its own job stream, so
	// a later pass's fresh jobs are not served by an earlier pass's store
	// entries.
	passes uint64
}

func (mi *mixInstance) close() {
	mi.srv.Close()
	os.RemoveAll(mi.dir)
}

// mixJob is one submission of the job stream.
type mixJob struct {
	body   []byte // the submitted JSON; also the spec's identity
	fresh  bool
	points int
}

// jobStream generates the seeded job sequence shared by the clients and
// remembers each completed spec's first /results payload. Fresh jobs draw
// their benchmarks and configurations round-robin from seeded
// permutations, cycle through 2, 3 and 4 points, and alternate the
// fast-forward prefix, so every run sees the same job composition while
// the seed decides which names meet in which job and the sampling seeds.
type jobStream struct {
	mu        sync.Mutex
	rng       *rand.Rand
	benches   []string
	configs   []string
	n         int // fresh jobs generated
	nb, nc    int // round-robin positions
	seeds     map[uint64]bool
	completed [][]byte          // spec bodies, in completion order
	first     map[string][]byte // spec body -> first /results payload
}

func newJobStream(seed, pass uint64) *jobStream {
	rng := rand.New(rand.NewPCG(seed, 0x5eed_0003+pass))
	return &jobStream{
		rng:     rng,
		benches: shuffled(rng, mixBenchmarks),
		configs: shuffled(rng, mixConfigs),
		seeds:   make(map[uint64]bool),
		first:   make(map[string][]byte),
	}
}

func shuffled(rng *rand.Rand, names []string) []string {
	out := make([]string, len(names))
	for i, j := range rng.Perm(len(names)) {
		out[i] = names[j]
	}
	return out
}

// shapes lists the (configs, benchmarks) splits of a 2-, 3- and 4-point
// sweep.
var shapes = [][2]int{{1, 2}, {1, 3}, {2, 2}, {2, 1}, {3, 1}, {1, 4}}

// fresh returns the next fresh job.
func (js *jobStream) fresh() mixJob {
	js.mu.Lock()
	defer js.mu.Unlock()
	shape := shapes[js.n%len(shapes)]
	ffwd := mixFFwdPool[(js.n/len(shapes))%len(mixFFwdPool)]
	js.n++
	var sampleSeed uint64
	for sampleSeed == 0 || js.seeds[sampleSeed] {
		sampleSeed = js.rng.Uint64() >> 16
	}
	js.seeds[sampleSeed] = true
	spec := server.SweepSpec{
		Configs:          roundRobin(js.configs, &js.nc, shape[0]),
		Benchmarks:       roundRobin(js.benches, &js.nb, shape[1]),
		MeasureInsts:     mixMeasure,
		FastForwardInsts: ffwd,
		Sample:           fmt.Sprintf("%s:%d", mixSchedule, sampleSeed),
	}
	body, _ := json.Marshal(spec)
	return mixJob{body: body, fresh: true, points: shape[0] * shape[1]}
}

// repeat returns a resubmission of a seeded choice among the completed
// specs, or a fresh job when none has completed yet.
func (js *jobStream) repeat() mixJob {
	js.mu.Lock()
	if len(js.completed) == 0 {
		js.mu.Unlock()
		return js.fresh()
	}
	body := js.completed[js.rng.IntN(len(js.completed))]
	js.mu.Unlock()
	var spec server.SweepSpec
	_ = json.Unmarshal(body, &spec)
	return mixJob{body: body, points: len(spec.Configs) * len(spec.Benchmarks)}
}

// roundRobin takes the next k names (k <= len(names), so they are
// distinct) and advances the position.
func roundRobin(names []string, pos *int, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = names[(*pos+i)%len(names)]
	}
	*pos += k
	return out
}

// complete records a finished job's /results payload. For a fresh job it
// becomes the reference its repeats must reproduce byte for byte; for a
// repeat it is checked against that reference.
func (js *jobStream) complete(j mixJob, results []byte) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	key := string(j.body)
	first, ok := js.first[key]
	if !ok {
		if !j.fresh {
			return fmt.Errorf("repeat of a spec with no completion")
		}
		js.first[key] = results
		js.completed = append(js.completed, j.body)
		return nil
	}
	if !bytes.Equal(first, results) {
		return fmt.Errorf("repeat /results differ from the first completion (%d vs %d bytes)", len(results), len(first))
	}
	return nil
}

// mixStats gathers the client-side measurements.
type mixStats struct {
	mu                            sync.Mutex
	freshMs, repeatMs             []float64
	submitMs, statusMs, resultsMs []float64
	submits, coalesced            int
	points                        int
	extent                        uint64
	detailed, total               uint64
	effRate, mispred              []float64
}

func (mi *mixInstance) measure(o *options, seconds float64, tr *tracer, t *tally) (*sample, error) {
	js := newJobStream(o.seed, mi.passes)
	mi.passes++
	st := &mixStats{}
	prior, _, err := journal.ReadFile(mi.journal)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * mixClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	// Store counters accumulate over the pass's server processes.
	storeCounts := make(map[string]float64)
	before := mi.srv.Registry().Snapshot()
	endEpoch := func() {
		// Drain: every submitted job must be terminal before the epoch
		// ends (and before its server closes), so no simulation outlives
		// it.
		mi.drain(client, t)
		after := mi.srv.Registry().Snapshot()
		for _, name := range []string{"tracecache_store_hits_total", "tracecache_store_misses_total", "tracecache_store_quarantined_total"} {
			storeCounts[name] += after[name] - before[name]
		}
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	// The clients run in lockstep rounds. Both submit a fresh job at
	// once; when both have their results, each in turn resubmits a
	// completed spec. Taking turns keeps one store-served job's decoding
	// from delaying the other's progress stream, which would otherwise
	// decide whether the job's completion lands before or after the
	// stream's first 10 ms tick.
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if round > 0 && round%mixEpochRounds == 0 {
			endEpoch()
			mi.srv.Close()
			if err := mi.start(); err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			before = mi.srv.Registry().Snapshot()
		}
		var wg sync.WaitGroup
		for c := 0; c < mixClients; c++ {
			wg.Add(1)
			go func(j mixJob) {
				defer wg.Done()
				mi.runJob(client, js, j, st, tr, t)
			}(js.fresh())
		}
		wg.Wait()
		for c := 0; c < mixClients; c++ {
			mi.runJob(client, js, js.repeat(), st, tr, t)
		}
	}
	elapsed := time.Since(start)
	endEpoch()
	delta := func(name string) float64 { return storeCounts[name] }

	smp := &sample{
		workers:    o.workers,
		freshMs:    st.freshMs,
		repeatMs:   st.repeatMs,
		pointsPerS: []float64{float64(st.points) / elapsed.Seconds()},
		minstsPerS: []float64{float64(st.extent) / 1e6 / elapsed.Seconds()},
		insts:      st.extent,
		layer:      make(map[string]float64),
	}
	L := smp.layer
	L["server.submit_ms_p50"] = median(st.submitMs)
	L["server.status_ms_p50"] = median(st.statusMs)
	L["server.results_ms_p50"] = median(st.resultsMs)
	L["server.coalesced_frac"] = float64(st.coalesced) / float64(max(st.submits, 1))
	hits, misses := delta("tracecache_store_hits_total"), delta("tracecache_store_misses_total")
	if hits+misses > 0 {
		L["resultstore.hit_frac"] = hits / (hits + misses)
	}
	L["resultstore.quarantined"] = delta("tracecache_store_quarantined_total")
	L["sampling.detailed_frac"] = ratio(st.detailed, st.total)
	L["fetch.eff_rate"] = median(st.effRate)
	L["bpred.cond_mispredict_rate"] = median(st.mispred)

	recs, _, err := journal.ReadFile(mi.journal)
	if err != nil {
		t.fail("journal: %v", err)
	}
	var sampledWall []float64
	for _, rec := range recs[min(len(prior), len(recs)):] {
		ev := journalEvent(rec)
		switch {
		case rec.Error != "":
			t.fail("journal %s/%s: %s", rec.Config, rec.Benchmark, rec.Error)
		case rec.Provenance == stats.ProvMemoized:
			smp.memoEvents++
		default:
			smp.events = append(smp.events, ev)
			if rec.Provenance == stats.ProvSampled {
				sampledWall = append(sampledWall, rec.WallMillis)
			}
		}
	}
	L["sampling.run_ms_per_point"] = median(sampledWall)
	smp.layerSamples = map[string]int{
		"server.submit_ms_p50":      len(st.submitMs),
		"server.status_ms_p50":      len(st.statusMs),
		"server.results_ms_p50":     len(st.resultsMs),
		"sampling.run_ms_per_point": len(sampledWall),
	}
	smp.freshWall = elapsed
	return smp, nil
}

// runJob submits one job, follows it over the progress SSE stream to a
// terminal state, fetches its results and checks them. Any failed step
// fails the job.
func (mi *mixInstance) runJob(client *http.Client, js *jobStream, j mixJob, st *mixStats, tr *tracer, t *tally) {
	kind := "repeat"
	if j.fresh {
		kind = "fresh"
	}
	ctx, cancel := context.WithTimeout(context.Background(), mixJobTimeout)
	defer cancel()
	t0 := time.Now()
	root := tr.begin(0, "job."+kind, "")
	defer tr.end(root)
	fail := func(format string, args ...any) {
		t.fail("%s job: %s", kind, fmt.Sprintf(format, args...))
	}

	// Submit.
	var status struct {
		ID string `json:"id"`
	}
	s0 := time.Now()
	submit := tr.begin(root, "server.submit", "")
	code, body, err := mi.call(ctx, client, nil, 0, "", "", http.MethodPost, "/api/jobs", j.body)
	tr.end(submit)
	submitMs := ms(time.Since(s0))
	coalesced := code == http.StatusOK // 201 creates a job, 200 joins a live identical one
	if err != nil || (code != http.StatusCreated && code != http.StatusOK) {
		fail("submit: status %d: %v %s", code, err, body)
		return
	}
	if err := json.Unmarshal(body, &status); err != nil || status.ID == "" {
		fail("submit: bad response %q", body)
		return
	}
	tr.setKey(root, status.ID)
	tr.setKey(submit, status.ID)

	// Check the job's state, then follow its progress over SSE. A
	// store-served job finishes in about the time a client takes to open
	// the stream, so whether the stream's first snapshot already reports
	// completion or the client waits for the next 10 ms tick is close to
	// a coin flip; checking first tilts it toward the first snapshot, the
	// same way on every run.
	s0 = time.Now()
	state, err := mi.jobState(ctx, client, tr, root, status.ID)
	statusMs := ms(time.Since(s0))
	if err != nil {
		fail("%s: status: %v", status.ID, err)
		return
	}
	if err := mi.follow(ctx, client, tr, root, status.ID); err != nil {
		fail("%s: progress: %v", status.ID, err)
		return
	}
	// The stream reports completion as the job's last point resolves;
	// the job turns terminal right after.
	for wait := time.Duration(0); state != server.JobDone && state != server.JobFailed; wait = time.Millisecond {
		select {
		case <-ctx.Done():
			fail("%s: not terminal after %s (state %s)", status.ID, mixJobTimeout, state)
			return
		case <-time.After(wait):
		}
		if state, err = mi.jobState(ctx, client, tr, root, status.ID); err != nil {
			fail("%s: status: %v", status.ID, err)
			return
		}
	}
	if state != server.JobDone {
		fail("%s: state %s", status.ID, state)
		return
	}
	r0 := time.Now()
	code, results, err := mi.call(ctx, client, tr, root, "server.results", status.ID, http.MethodGet, "/api/jobs/"+status.ID+"/results", nil)
	resultsMs := ms(time.Since(r0))
	latency := ms(time.Since(t0))
	if err != nil || code != http.StatusOK {
		fail("%s: results: %d %v", status.ID, code, err)
		return
	}
	var payload struct {
		Points []server.PointResult `json:"points"`
	}
	if err := json.Unmarshal(results, &payload); err != nil {
		fail("%s: results: %v", status.ID, err)
		return
	}
	if len(payload.Points) != j.points {
		fail("%s: %d result points, want %d", status.ID, len(payload.Points), j.points)
		return
	}
	for _, p := range payload.Points {
		ok := p.Error == "" && p.Sampled != nil && len(p.Sampled.Windows) > 0
		t.record(ok, fmt.Sprintf("%s %s/%s: point error %q", status.ID, p.Config, p.Benchmark, p.Error))
	}
	if err := js.complete(j, results); err != nil {
		fail("%s: %v", status.ID, err)
		return
	}
	t.record(true, "")

	st.mu.Lock()
	defer st.mu.Unlock()
	st.submits++
	if coalesced {
		st.coalesced++
	}
	st.submitMs = append(st.submitMs, submitMs)
	st.statusMs = append(st.statusMs, statusMs)
	st.resultsMs = append(st.resultsMs, resultsMs)
	st.points += len(payload.Points)
	if j.fresh {
		st.freshMs = append(st.freshMs, latency)
		for _, p := range payload.Points {
			st.extent += p.Sampled.TotalInsts
			st.detailed += detailedInsts(p.Sampled)
			st.total += p.Sampled.TotalInsts
			st.effRate = append(st.effRate, p.Sampled.EffFetchRate.Mean)
			st.mispred = append(st.mispred, p.Sampled.MispredictRate.Mean)
		}
	} else {
		st.repeatMs = append(st.repeatMs, latency)

	}
}

// jobState fetches a job's lifecycle state.
func (mi *mixInstance) jobState(ctx context.Context, client *http.Client, tr *tracer, parent uint64, id string) (string, error) {
	code, body, err := mi.call(ctx, client, tr, parent, "server.status", id, http.MethodGet, "/api/jobs/"+id, nil)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", code, body)
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", err
	}
	return st.State, nil
}

// call performs one HTTP exchange under a span and returns the status
// and body.
func (mi *mixInstance) call(ctx context.Context, client *http.Client, tr *tracer, parent uint64, name, key, method, path string, body []byte) (int, []byte, error) {
	id := tr.begin(parent, name, key)
	defer tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, mi.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// follow reads the job's progress SSE stream until a snapshot reports
// the job complete.
func (mi *mixInstance) follow(ctx context.Context, client *http.Client, tr *tracer, parent uint64, id string) error {
	sp := tr.begin(parent, "server.progress_sse", id)
	defer tr.end(sp)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, mi.base+"/api/jobs/"+id+"/progress?sse=1&interval=10", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var snap struct {
			Complete bool `json:"complete"`
		}
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			return err
		}
		if snap.Complete {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended before completion")
}

// drain waits until every job the server knows is terminal, failing any
// that is not within the job timeout.
func (mi *mixInstance) drain(client *http.Client, t *tally) {
	ctx, cancel := context.WithTimeout(context.Background(), mixJobTimeout)
	defer cancel()
	for {
		code, body, err := mi.call(ctx, client, nil, 0, "", "", http.MethodGet, "/api/jobs", nil)
		if err != nil || code != http.StatusOK {
			t.fail("drain: list jobs: %d %v", code, err)
			return
		}
		var list struct {
			Jobs []struct {
				ID    string `json:"id"`
				State string `json:"state"`
			} `json:"jobs"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			t.fail("drain: %v", err)
			return
		}
		var live []string
		for _, j := range list.Jobs {
			if j.State != server.JobDone && j.State != server.JobFailed {
				live = append(live, j.ID)
			}
		}
		if len(live) == 0 {
			return
		}
		select {
		case <-ctx.Done():
			for _, id := range live {
				t.fail("drain: job %s not terminal after %s", id, mixJobTimeout)
			}
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (mi *mixInstance) streams(o *options) ([]stream, error) {
	// The committed streams the job mix samples: each pool benchmark over
	// the longest prefix plus one period of the schedule.
	return recordStreams(o, mixBenchmarks, 0, mixFFwdPool[len(mixFFwdPool)-1]+40_000)
}
