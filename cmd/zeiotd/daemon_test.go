package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"zeiot"
	"zeiot/internal/jobs"
)

// newTestServer starts an httptest server around a daemon with the given
// pool bounds. A nil runFn selects the real experiment runner.
func newTestServer(t *testing.T, workers, queueCap int, runFn jobs.RunFunc) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(workers, queueCap, runFn)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.drain(0)
	})
	return s, ts
}

// submit POSTs a job and decodes the response; body is the raw request JSON.
func submit(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return sr, resp.StatusCode
}

// pollDone polls a job's status until it reaches a terminal state and
// returns it; it fails the test if the job does not finish in time.
func pollDone(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch jobs.State(st.State) {
		case jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobStatus{}
}

// getResult fetches a finished job's result bytes.
func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result for %s: status %d, body %s", id, resp.StatusCode, out)
	}
	return out
}

// TestSubmitValidation: every malformed submission is a 400, never a queued
// job running a half-understood config.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, 1, 4, func(ctx context.Context, w jobs.Work) ([]byte, error) {
		return nil, fmt.Errorf("validation test must not run jobs")
	})
	cases := map[string]string{
		"not json":          `{"experiment"`,
		"unknown top field": `{"experiment":"e1","confg":{}}`,
		"missing exp":       `{"config":{"Seed":1}}`,
		"unknown exp":       `{"experiment":"e99","config":{"Seed":1}}`,
		"unknown knob":      `{"experiment":"e1","config":{"Sede":1}}`,
		"removed knob":      `{"experiment":"e1","config":{"BatchKernel":8}}`,
		"invalid value":     `{"experiment":"e1","config":{"TrainWorkers":-1}}`,
		"recorder":          `{"experiment":"e1","config":{"Recorder":{}}}`,
		"bad loss":          `{"experiment":"e1","config":{"Loss":{"DropProb":0.5}}}`,
		"trailing input":    `{"experiment":"e1","config":{"Seed":1}} {"experiment":"e2"} garbage`,
		"trailing value":    `{"experiment":"e1","config":{"Seed":1}} {"experiment":"e2"}`,
		"trailing brace":    `{"experiment":"e1","config":{"Seed":1}}}`,
	}
	for name, body := range cases {
		if _, code := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/j1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status of never-created job = %d, want 404", resp.StatusCode)
	}
}

// TestBackpressureAndDrain drives the daemon's two rejection paths through
// the HTTP layer with a blocking runner: a full queue answers 429, and a
// draining daemon answers 503 while keeping every prior job's status
// queryable.
func TestBackpressureAndDrain(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 1)
	s, ts := newTestServer(t, 1, 1, func(ctx context.Context, w jobs.Work) ([]byte, error) {
		started <- w.ID
		select {
		case <-gate:
			return []byte("done\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	// Distinct seeds: three distinct cache keys, so nothing is served from
	// cache. Job 1 occupies the worker, job 2 fills the queue, job 3 must
	// bounce with 429.
	first, code := submit(t, ts, `{"experiment":"e1","config":{"Seed":101}}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first job")
	}
	if _, code := submit(t, ts, `{"experiment":"e1","config":{"Seed":102}}`); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", code)
	}
	if _, code := submit(t, ts, `{"experiment":"e1","config":{"Seed":103}}`); code != http.StatusTooManyRequests {
		t.Errorf("overflow submit: status %d, want 429", code)
	}

	// A result request for the still-running job is a 409, not a 404 or an
	// empty body.
	resp, err := http.Get(ts.URL + "/jobs/" + first.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of running job: status %d, want 409", resp.StatusCode)
	}

	// /metrics must report the rejection and the live pool state.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"zeiotd_rejected_queue_full 1\n",
		"zeiotd_jobs_running 1\n",
		"zeiotd_queue_depth 1\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Drain: the running job is canceled (gate never opens), the queued job
	// is canceled immediately, and both statuses survive. New submissions
	// answer 503.
	sum, statuses := s.drain(10 * time.Millisecond)
	if sum.Canceled != 2 {
		t.Errorf("drain summary = %+v, want 2 canceled", sum)
	}
	if len(statuses) != 2 {
		t.Errorf("drain flushed %d statuses, want 2", len(statuses))
	}
	if _, code := submit(t, ts, `{"experiment":"e1","config":{"Seed":104}}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", code)
	}
	for _, id := range []string{"j1", "j2"} {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State != string(jobs.StateCanceled) {
			t.Errorf("job %s after drain = %q, want canceled", id, st.State)
		}
	}
}

// TestDaemonE1Golden is the daemon half of the byte-identity acceptance: a
// default e1 submission through the HTTP path must reproduce the checked-in
// golden byte for byte, and a resubmission must be served from cache with
// the identical bytes.
func TestDaemonE1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full e1 run through the daemon")
	}
	_, ts := newTestServer(t, 2, 8, nil)

	golden, err := os.ReadFile("../../testdata/e1_seed1.golden.json")
	if err != nil {
		t.Fatal(err)
	}

	fresh, code := submit(t, ts, `{"experiment":"e1","config":{"Seed":1}}`)
	if code != http.StatusAccepted || fresh.CacheHit {
		t.Fatalf("fresh submit: status %d, cache_hit %v", code, fresh.CacheHit)
	}
	st := pollDone(t, ts, fresh.ID)
	if st.State != string(jobs.StateDone) {
		t.Fatalf("job %s finished %s (%s)", fresh.ID, st.State, st.Error)
	}
	if st.TimingsSec["total"] <= 0 {
		t.Errorf("finished status has no total timing: %v", st.TimingsSec)
	}
	if st.Metrics == nil || st.Metrics.Gauges["config_seed"] != 1 {
		t.Errorf("finished status has no per-job metrics: %+v", st.Metrics)
	}
	got := getResult(t, ts, fresh.ID)
	if !bytes.Equal(got, golden) {
		t.Errorf("daemon e1 result diverges from testdata/e1_seed1.golden.json (%d vs %d bytes)", len(got), len(golden))
	}

	// SampleScale 0 and 1 are the same canonical config: both must hit the
	// cache of the run above, 200 immediately, byte-identical result.
	for _, body := range []string{
		`{"experiment":"e1","config":{"Seed":1}}`,
		`{"experiment":"e1","config":{"Seed":1,"SampleScale":1}}`,
	} {
		hit, code := submit(t, ts, body)
		if code != http.StatusOK || !hit.CacheHit || hit.State != string(jobs.StateDone) {
			t.Fatalf("resubmit %s: status %d, %+v", body, code, hit)
		}
		if hit.Key != fresh.Key {
			t.Errorf("resubmit key %s != original %s", hit.Key, fresh.Key)
		}
		if cached := getResult(t, ts, hit.ID); !bytes.Equal(cached, got) {
			t.Error("cached result bytes differ from the fresh run")
		}
	}
}

// TestDaemonMixedConfigConcurrent is the PR 10 concurrency satellite: e1
// jobs at {TrainWorkers: 1} and {TrainWorkers: 4, loss on} run through the
// daemon concurrently — cached and uncached submissions interleaved — and
// every result is byte-identical to the serial baseline of its config.
func TestDaemonMixedConfigConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple e1 runs through the daemon")
	}
	variants := []struct {
		name string
		body string
		cfg  *zeiot.RunConfig
	}{
		{
			name: "serial-clean",
			body: `{"experiment":"e1","config":{"Seed":1,"TrainWorkers":1,"SampleScale":0.5}}`,
			cfg:  &zeiot.RunConfig{Seed: 1, TrainWorkers: 1, SampleScale: 0.5},
		},
		{
			name: "parallel-lossy",
			body: `{"experiment":"e1","config":{"Seed":1,"TrainWorkers":4,"SampleScale":0.5,"Loss":{"Enabled":true,"DropProb":0.2,"MaxRetries":2}}}`,
			cfg: &zeiot.RunConfig{Seed: 1, TrainWorkers: 4, SampleScale: 0.5,
				Loss: zeiot.LossConfig{Enabled: true, DropProb: 0.2, MaxRetries: 2}},
		},
	}

	// Serial baselines, through the same encoder the daemon caches.
	e, err := zeiot.FindExperiment("e1")
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(variants))
	for i, v := range variants {
		res, err := e.Run(context.Background(), v.cfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", v.name, err)
		}
		if want[i], err = encodeResult(res); err != nil {
			t.Fatal(err)
		}
	}

	_, ts := newTestServer(t, 4, 32, nil)

	// Phase 1: both variants in flight at once, uncached.
	ids := make([]string, len(variants))
	for i, v := range variants {
		sr, code := submit(t, ts, v.body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: status %d", v.name, code)
		}
		ids[i] = sr.ID
	}
	for i, v := range variants {
		st := pollDone(t, ts, ids[i])
		if st.State != string(jobs.StateDone) {
			t.Fatalf("%s finished %s (%s)", v.name, st.State, st.Error)
		}
		if got := getResult(t, ts, ids[i]); !bytes.Equal(got, want[i]) {
			t.Errorf("%s: concurrent daemon result diverges from serial baseline", v.name)
		}
	}

	// Phase 2: hammer both variants from many goroutines; every submission
	// must be served from cache, byte-identical to its baseline.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				v := variants[(g+i)%len(variants)]
				sr, code := submit(t, ts, v.body)
				if code != http.StatusOK || !sr.CacheHit {
					errs <- fmt.Errorf("%s: cached submit status %d, hit %v", v.name, code, sr.CacheHit)
					return
				}
				if got := getResult(t, ts, sr.ID); !bytes.Equal(got, want[(g+i)%len(variants)]) {
					errs <- fmt.Errorf("%s: cached result diverges from serial baseline", v.name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDaemonLoad is the PR 10 load acceptance: a repeated e1 sweep sustains
// at least 50 submissions/sec with at least 90% of submissions served from
// the result cache, and cached responses stay byte-identical to the fresh
// run. The rate is measured over the steady-state (warm-cache) phase, which
// is exactly the regime the acceptance describes.
func TestDaemonLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test runs a full e1 warmup")
	}
	s, ts := newTestServer(t, 2, 64, nil)

	// Warm: one real run (the only cache miss this test allows).
	warm, code := submit(t, ts, `{"experiment":"e1","config":{"Seed":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("warm submit: status %d", code)
	}
	if st := pollDone(t, ts, warm.ID); st.State != string(jobs.StateDone) {
		t.Fatalf("warm job finished %s (%s)", st.State, st.Error)
	}
	fresh := getResult(t, ts, warm.ID)

	const (
		clients = 8
		perC    = 40 // 320 submissions total
	)
	var hits int64
	var mu sync.Mutex
	sample := []byte(nil) // one cached body per client, spot-checked below
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			myHits := 0
			var body []byte
			for i := 0; i < perC; i++ {
				sr, code := submit(t, ts, `{"experiment":"e1","config":{"Seed":1}}`)
				if code != http.StatusOK {
					errs <- fmt.Errorf("warm-cache submit: status %d", code)
					return
				}
				if sr.CacheHit {
					myHits++
				}
				if i == 0 {
					body = getResult(t, ts, sr.ID)
				}
			}
			mu.Lock()
			hits += int64(myHits)
			sample = body
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(clients * perC)
	rate := float64(total) / elapsed.Seconds()
	hitRatio := float64(hits) / float64(total)
	t.Logf("load: %d submissions in %v (%.0f/sec), hit ratio %.3f", total, elapsed, rate, hitRatio)
	if rate < 50 {
		t.Errorf("sustained %.1f submissions/sec, acceptance floor is 50", rate)
	}
	if hitRatio < 0.9 {
		t.Errorf("cache hit ratio %.3f, acceptance floor is 0.90", hitRatio)
	}
	if !bytes.Equal(sample, fresh) {
		t.Error("cached response bytes diverge from the fresh run")
	}

	// The daemon's own counters must agree: exactly one miss (the warmup).
	snap := s.metrics.Snapshot()
	if snap.Counters["cache_misses"] != 1 {
		t.Errorf("cache_misses = %d, want 1", snap.Counters["cache_misses"])
	}
	if snap.Counters["cache_hits"] != hits {
		t.Errorf("cache_hits = %d, client-observed hits %d", snap.Counters["cache_hits"], hits)
	}
}
