package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"zeiot"
	"zeiot/internal/jobs"
	"zeiot/internal/obs"
)

// server is the daemon behind the HTTP API: a jobs.Pool running experiments,
// a result cache keyed by canonical config hash, per-job observability
// registries, and a daemon-level metrics registry for /metrics.
type server struct {
	pool    *jobs.Pool
	metrics *obs.Registry

	mu    sync.Mutex
	cache map[string][]byte   // ConfigKey → deterministic result bytes
	info  map[string]*jobInfo // job id → per-job registry + timings
}

// jobInfo holds what the pool does not: the per-job recorder (its snapshot
// is the job's live progress view) and the wall-time stage timings of the
// finished run (stripped from the cached result bytes, which must stay
// deterministic).
type jobInfo struct {
	reg     *obs.Registry
	timings zeiot.Timings
}

// newServer builds a daemon with the given worker and queue bounds. runFn
// overrides the job runner for tests; nil selects the real experiment
// runner.
func newServer(workers, queueCap int, runFn jobs.RunFunc) *server {
	s := &server{
		metrics: obs.NewRegistry(),
		cache:   make(map[string][]byte),
		info:    make(map[string]*jobInfo),
	}
	if runFn == nil {
		runFn = s.runJob
	}
	s.pool = jobs.NewPool(workers, queueCap, runFn)
	return s
}

// handler routes the daemon's API:
//
//	POST /jobs            submit a job: {"experiment":"e1","config":{...}}
//	GET  /jobs            list every job's status
//	GET  /jobs/{id}       one job's status + progress metrics
//	GET  /jobs/{id}/result the finished result, byte-identical to zeiotbench -json
//	GET  /metrics         daemon metrics, Prometheus text format
//	GET  /healthz         liveness probe
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// submitRequest is the POST /jobs body. Config is RunConfig-shaped JSON
// (exported field names: Seed, TrainWorkers, Loss, SampleScale, ...);
// unknown fields are rejected so a typoed knob can never silently run the
// default config.
type submitRequest struct {
	Experiment string          `json:"experiment"`
	Config     json.RawMessage `json:"config"`
}

// submitResponse answers POST /jobs: the job id to poll, its immediate
// state ("done" when served from cache, else "queued"), the canonical
// config key the result is cached under, and whether this submission hit
// the cache.
type submitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Key      string `json:"key"`
	CacheHit bool   `json:"cache_hit"`
}

// maxSubmitBody bounds a POST /jobs body, so one request cannot make the
// daemon buffer an arbitrarily long JSON value. A config that names every
// modality is under 1 KiB.
const maxSubmitBody = 64 << 10

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		bodyError(w, err)
		return
	}
	// Decode stops after the first value; a body is one request, so
	// anything but whitespace after it is malformed, not ignored.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the request object")
		}
		bodyError(w, err)
		return
	}
	if req.Experiment == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing \"experiment\""))
		return
	}
	rc := &zeiot.RunConfig{}
	if len(req.Config) > 0 {
		cdec := json.NewDecoder(bytes.NewReader(req.Config))
		cdec.DisallowUnknownFields()
		if err := cdec.Decode(rc); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad config: %w", err))
			return
		}
	}
	if rc.Recorder != nil {
		httpError(w, http.StatusBadRequest, errors.New("bad config: Recorder is server-side only"))
		return
	}
	key, err := zeiot.ConfigKey(req.Experiment, rc)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.Add("jobs_submitted", 1)

	// The lock covers only the cache read, not the job creation after it:
	// two identical submissions may both miss and both run. Their results
	// are byte-identical, so whichever finishes last overwrites the entry
	// with the same bytes.
	s.mu.Lock()
	cached, hit := s.cache[key]
	s.mu.Unlock()
	if hit {
		snap, err := s.pool.Complete(req.Experiment, key, cached)
		if err != nil {
			s.submitError(w, err)
			return
		}
		s.metrics.Add("cache_hits", 1)
		writeJSON(w, http.StatusOK, submitResponse{ID: snap.ID, State: string(snap.State), Key: key, CacheHit: true})
		return
	}
	snap, err := s.pool.Submit(req.Experiment, key, rc)
	if err != nil {
		s.submitError(w, err)
		return
	}
	s.metrics.Add("cache_misses", 1)
	writeJSON(w, http.StatusAccepted, submitResponse{ID: snap.ID, State: string(snap.State), Key: key})
}

// submitError maps pool rejections onto their HTTP statuses: a full queue
// is backpressure (429, retryable), a draining pool is shutdown (503).
func (s *server) submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.metrics.Add("rejected_queue_full", 1)
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrDraining):
		s.metrics.Add("rejected_draining", 1)
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

// jobStatus is the wire form of one job's status. Progress of a running
// job shows up in Metrics — the per-job registry snapshot (training
// curves, cache counters) grows as the run advances. TimingsSec appears
// once the run finished; it is wall time, the one nondeterministic block,
// which is exactly why it lives here and not in the cached result bytes.
type jobStatus struct {
	ID         string             `json:"id"`
	Experiment string             `json:"experiment"`
	Key        string             `json:"key"`
	State      string             `json:"state"`
	CacheHit   bool               `json:"cache_hit"`
	Error      string             `json:"error,omitempty"`
	Submitted  string             `json:"submitted,omitempty"`
	Started    string             `json:"started,omitempty"`
	Finished   string             `json:"finished,omitempty"`
	TimingsSec map[string]float64 `json:"timings_sec,omitempty"`
	Metrics    *obs.Snapshot      `json:"metrics,omitempty"`
}

func (s *server) status(snap jobs.Snapshot, withMetrics bool) jobStatus {
	st := jobStatus{
		ID:         snap.ID,
		Experiment: snap.Experiment,
		Key:        snap.Key,
		State:      string(snap.State),
		CacheHit:   snap.CacheHit,
		Error:      snap.Error,
		Submitted:  rfc3339(snap.Submitted),
		Started:    rfc3339(snap.Started),
		Finished:   rfc3339(snap.Finished),
	}
	// runJob sets info.timings under s.mu when the job finishes, so read
	// the field under the lock too; the map itself is never written again.
	s.mu.Lock()
	info := s.info[snap.ID]
	var timings zeiot.Timings
	if info != nil {
		timings = info.timings
	}
	s.mu.Unlock()
	if info != nil {
		if len(timings) > 0 {
			st.TimingsSec = make(map[string]float64, len(timings))
			for stage, d := range timings {
				st.TimingsSec[stage] = d.Seconds()
			}
		}
		if withMetrics {
			st.Metrics = info.reg.Snapshot()
		}
	}
	return st
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.status(snap, true))
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	snaps := s.pool.List()
	out := make([]jobStatus, 0, len(snaps))
	for _, snap := range snaps {
		out = append(out, s.status(snap, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleResult serves a finished job's result bytes verbatim — the same
// bytes `zeiotbench -e <exp> -json` prints for the same config, whether the
// job ran or was served from cache, so clients can diff results across
// submissions and against checked-in goldens.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if snap.State != jobs.StateDone {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", snap.ID, snap.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(snap.Result)
}

// handleMetrics exports the daemon registry as Prometheus text under the
// zeiotd_ prefix, with the pool and job-state gauges refreshed at scrape
// time.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, running := s.pool.Depth()
	s.metrics.Gauge("queue_depth", float64(queued))
	s.metrics.Gauge("jobs_running", float64(running))
	counts := map[jobs.State]int{}
	for _, snap := range s.pool.List() {
		counts[snap.State]++
	}
	for _, st := range []jobs.State{jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled} {
		s.metrics.Gauge("jobs_state_"+string(st), float64(counts[st]))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.Snapshot().WritePrometheus(w, "zeiotd_"); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

// runJob is the pool's RunFunc: it runs one experiment under the job's
// config with a fresh per-job registry attached, and turns the Result into
// the deterministic byte form that is cached and served. Timings and
// Metrics are stripped from those bytes — both are nondeterministic or
// run-local — and parked in jobInfo for the status endpoint instead.
func (s *server) runJob(ctx context.Context, work jobs.Work) ([]byte, error) {
	rc := work.Payload.(*zeiot.RunConfig).Clone()
	reg := obs.NewRegistry()
	rc.Recorder = reg
	s.mu.Lock()
	s.info[work.ID] = &jobInfo{reg: reg}
	s.mu.Unlock()

	e, err := zeiot.FindExperiment(work.Experiment)
	if err != nil {
		return nil, err // unreachable: ConfigKey validated the id at submit
	}
	res, err := e.Run(ctx, rc)
	if err != nil {
		return nil, err
	}
	timings := res.Timings
	out, err := encodeResult(res)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cache[work.Key] = out
	s.info[work.ID].timings = timings
	s.mu.Unlock()
	return out, nil
}

// drain shuts the pool down (grace semantics per jobs.Pool.Shutdown) and
// returns the final status of every job — the "flush status" half of the
// SIGTERM contract. The caller logs it before exiting.
func (s *server) drain(grace time.Duration) (jobs.Summary, []jobStatus) {
	sum := s.pool.Shutdown(grace)
	snaps := s.pool.List()
	out := make([]jobStatus, 0, len(snaps))
	for _, snap := range snaps {
		out = append(out, s.status(snap, false))
	}
	return sum, out
}

// encodeResult renders a Result exactly as `zeiotbench -json` does — a
// one-element array, two-space indent, trailing newline — with Timings and
// Metrics stripped so the bytes are deterministic: the property that makes
// cached responses byte-identical to fresh runs and directly diffable
// against the checked-in goldens.
func encodeResult(res *zeiot.Result) ([]byte, error) {
	res.Timings = nil
	res.Metrics = nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]*zeiot.Result{res}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// bodyError answers a POST /jobs body the decoder rejected: 413 past
// maxSubmitBody, 400 for anything else.
func bodyError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, fmt.Errorf("bad request body: %w", err))
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
