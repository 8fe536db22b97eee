package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"zeiot"
	"zeiot/internal/obs"
)

// Service parameters of the service-mix workloads. README.md repeats them.
const (
	hitRate     = 100.0                  // reads offered per second (cache hits)
	missRate    = 20.0                   // writes offered per second (cache misses)
	hitLimit    = 100 * time.Millisecond // latency limit of a read, for goodput
	missLimit   = time.Second            // latency limit of a write, for goodput
	warmConfigs = 2                      // e1 configs the cache is warmed with
	queueCap    = 64                     // zeiotd -queue
	// daemonWorkers is zeiotd -workers. One job runner leaves the other
	// processor to the HTTP handlers, so a read waits for a processor only
	// as long as the machine makes it, not for a job's time slice to end.
	daemonWorkers = 1
	setupRounds   = 3                     // daemon set-ups per run; setup_s is their median
	pollEvery     = 2 * time.Millisecond  // a write polls its job this often until done
	warmPoll      = 10 * time.Millisecond // set-up polls the warming jobs this often
	opTimeout     = 30 * time.Second      // an operation slower than this fails
	scrapeEvery   = 50 * time.Millisecond // traced runs sample /metrics this often
)

// missExperiments are the cheap experiments the writes cycle through, each
// at a seed used once, so every write is a cache miss that runs.
var missExperiments = []string{"e6", "e9", "e10", "e11", "e15"}

// job is one submission: an experiment and the seed of its config. Every
// config carries TrainWorkers 1, so zeiotd's workers never exceed nproc
// threads of training between them.
type job struct {
	exp  string
	seed uint64
}

func (j job) config() *zeiot.RunConfig { return &zeiot.RunConfig{Seed: j.seed, TrainWorkers: 1} }

func (j job) body() []byte {
	b, _ := json.Marshal(map[string]any{"experiment": j.exp, "config": map[string]any{"Seed": j.seed, "TrainWorkers": 1}})
	return b
}

// warmJobs are the e1 configs the cache is warmed with: seeds refSeed
// onwards, so the first one's bytes are checked against ref/e1.json. The set
// does not depend on the workload seed, whose e1 run times differ, so set-up
// time compares across seeds.
func warmJobs() []job {
	out := make([]job, warmConfigs)
	for i := range out {
		out[i] = job{"e1", refSeed + uint64(i)}
	}
	return out
}

// arrival is one scheduled submission of the open loop.
type arrival struct {
	at  time.Duration // due time after the window opens
	hit bool
	job job
}

// schedule draws the open loop's arrivals from the workload seed: Poisson
// arrivals of reads and of writes over the window, conditioned on their
// counts (rate × window, so every run offers the same load), which makes the
// arrival times independent uniform draws. Reads target a uniformly drawn
// warm config; writes cycle through missExperiments at seeds used once.
func schedule(seed uint64, seconds float64, warm []job) []arrival {
	rnd := rand.New(rand.NewPCG(seed, 0x7a65696f74))
	window := int64(seconds * float64(time.Second))
	var out []arrival
	for i := 0; i < int(math.Round(hitRate*seconds)); i++ {
		out = append(out, arrival{at: time.Duration(rnd.Int64N(window)), hit: true, job: warm[rnd.IntN(len(warm))]})
	}
	base := 1_000_000 + 100_000*seed
	for i := 0; i < int(math.Round(missRate*seconds)); i++ {
		exp := missExperiments[i%len(missExperiments)]
		out = append(out, arrival{at: time.Duration(rnd.Int64N(window)), job: job{exp, base + uint64(i)}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// openLoop calls op(i, due) for every due offset at that time after the
// loop starts, whether or not earlier operations have finished, and waits
// for all of them. Operations time themselves from due, so a stall that
// delays a send — a late dispatcher, or a wait for one of the client's
// connections — counts in their latency. It returns the start and how late
// each operation was dispatched.
func openLoop(ctx context.Context, dues []time.Duration, op func(i int, due time.Time)) (time.Time, []time.Duration) {
	start := time.Now().Add(50 * time.Millisecond)
	lag := make([]time.Duration, len(dues))
	var wg sync.WaitGroup
	for i, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		lag[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			op(i, due)
		}()
	}
	wg.Wait()
	return start, lag
}

// svcOp is what one submission of the open loop measured.
type svcOp struct {
	arrival
	due, done time.Time
	result    []byte
	err       error // the submission failed, so it has no latency
	wrong     bool  // the result bytes are not the expected ones
	submit    [2]time.Time
	polls     [][2]time.Time
	fetch     [2]time.Time
	queueWait time.Duration // job Started − Submitted, daemon clock
	run       time.Duration // job Finished − Started
}

func (op *svcOp) latency() time.Duration { return op.done.Sub(op.due) }

// client talks to one zeiotd over at most conns connections.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{url: url, http: &http.Client{Transport: tr, Timeout: opTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) request(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// call sends a request and decodes a JSON reply, failing on any status
// other than the accepted ones.
func (c *client) call(ctx context.Context, method, path string, body []byte, into any, ok ...int) error {
	b, code, err := c.request(ctx, method, path, body)
	if err != nil {
		return err
	}
	for _, want := range ok {
		if code == want {
			if into == nil {
				return nil
			}
			return json.Unmarshal(b, into)
		}
	}
	return fmt.Errorf("%s %s: status %d: %s", method, path, code, strings.TrimSpace(string(b)))
}

type submitReply struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

type jobStatus struct {
	State     string `json:"state"`
	Error     string `json:"error"`
	Submitted string `json:"submitted"`
	Started   string `json:"started"`
	Finished  string `json:"finished"`
}

// do runs one submission: POST /jobs, then for a job not served from cache
// GET /jobs/{id} every pollEvery until it is done, then GET its result.
func (c *client) do(ctx context.Context, op *svcOp) {
	defer func() { op.done = time.Now() }()
	t0 := time.Now()
	var rep submitReply
	err := c.call(ctx, http.MethodPost, "/jobs", op.job.body(), &rep, http.StatusOK, http.StatusAccepted)
	op.submit = [2]time.Time{t0, time.Now()}
	if err != nil {
		op.err = err
		return
	}
	if rep.State != "done" {
		if op.err = c.await(ctx, rep.ID, pollEvery, op); op.err != nil {
			return
		}
	}
	t0 = time.Now()
	var code int
	op.result, code, op.err = c.request(ctx, http.MethodGet, "/jobs/"+rep.ID+"/result", nil)
	op.fetch = [2]time.Time{t0, time.Now()}
	if op.err == nil && code != http.StatusOK {
		op.err = fmt.Errorf("result of %s: status %d", rep.ID, code)
	}
}

// await polls a job until it is done. With op set it records every poll and
// the job's queue wait and run time.
func (c *client) await(ctx context.Context, id string, every time.Duration, op *svcOp) error {
	deadline := time.Now().Add(opTimeout)
	for {
		select {
		case <-time.After(every):
		case <-ctx.Done():
			return ctx.Err()
		}
		t0 := time.Now()
		var st jobStatus
		err := c.call(ctx, http.MethodGet, "/jobs/"+id, nil, &st, http.StatusOK)
		if op != nil {
			op.polls = append(op.polls, [2]time.Time{t0, time.Now()})
		}
		if err != nil {
			return err
		}
		switch st.State {
		case "done":
			if op != nil {
				sub, _ := time.Parse(time.RFC3339Nano, st.Submitted)
				start, _ := time.Parse(time.RFC3339Nano, st.Started)
				fin, _ := time.Parse(time.RFC3339Nano, st.Finished)
				op.queueWait, op.run = start.Sub(sub), fin.Sub(start)
			}
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s not done within %s", id, opTimeout)
		}
	}
}

// daemon is one running zeiotd.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	exited  chan struct{}
	waitErr error
	stderr  bytes.Buffer
}

// startDaemon launches zeiotd on a free loopback port and returns once
// /healthz answers.
func (e *env) startDaemon(ctx context.Context, round int) (*daemon, error) {
	addrFile := filepath.Join(e.work, fmt.Sprintf("zeiotd-%d-%d.addr", os.Getpid(), round))
	os.Remove(addrFile)
	d := &daemon{exited: make(chan struct{})}
	d.cmd = e.command(ctx, e.nproc, "zeiotd", "-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-workers", strconv.Itoa(daemonWorkers), "-queue", strconv.Itoa(queueCap), "-grace", "5s")
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	defer os.Remove(addrFile)
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("zeiotd exited during start-up: %v: %s", d.waitErr, lastLine(d.stderr.String()))
		case <-time.After(time.Millisecond):
		}
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.url = "http://" + strings.TrimSpace(string(b))
			c := newClient(d.url, 1)
			_, code, err := c.request(ctx, http.MethodGet, "/healthz", nil)
			c.close()
			if err == nil && code == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("zeiotd not healthy within 30s")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited in
// time, waits for it, and returns its peak RSS in MB.
func (d *daemon) stop() (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case <-d.exited:
		err = d.waitErr
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		err = fmt.Errorf("zeiotd did not drain within 20s")
	}
	return peakRSS(d.cmd.ProcessState), err
}

// setupDaemon is one set-up: start zeiotd, wait for /healthz, warm the cache
// with the warm configs and fetch their bytes. It returns the time taken.
func (e *env) setupDaemon(ctx context.Context, round int, warm []job) (*daemon, *client, [][]byte, time.Duration, error) {
	t0 := time.Now()
	d, err := e.startDaemon(ctx, round)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	c := newClient(d.url, e.nproc)
	fail := func(err error) (*daemon, *client, [][]byte, time.Duration, error) {
		c.close()
		d.stop()
		return nil, nil, nil, 0, fmt.Errorf("warming zeiotd: %w", err)
	}
	ids := make([]string, len(warm))
	for i, j := range warm {
		var rep submitReply
		if err := c.call(ctx, http.MethodPost, "/jobs", j.body(), &rep, http.StatusOK, http.StatusAccepted); err != nil {
			return fail(err)
		}
		ids[i] = rep.ID
	}
	out := make([][]byte, len(warm))
	for i, id := range ids {
		if err := c.await(ctx, id, warmPoll, nil); err != nil {
			return fail(err)
		}
		b, code, err := c.request(ctx, http.MethodGet, "/jobs/"+id+"/result", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("result of %s: status %d", id, code)
		}
		if err != nil {
			return fail(err)
		}
		out[i] = b
	}
	return d, c, out, time.Since(t0), nil
}

// serviceRun is one run of a service-mix workload: setupRounds daemon
// set-ups (the last one is kept), an open loop of reads and writes for the
// window, then — outside the timing — a check of every read against its
// warm-phase bytes and of every write against an in-process recomputation.
// hitView selects the class the end-to-end metrics describe; traced adds
// the per-layer metrics.
func serviceRun(ctx context.Context, e *env, name string, hitView bool, seed uint64, seconds float64, traced bool) (*outcome, error) {
	o := newOutcome()
	warm := warmJobs()
	var setups, rss []float64
	var d *daemon
	var c *client
	var warmBytes [][]byte
	for round := 0; round < setupRounds; round++ {
		dd, cc, wb, took, err := e.setupDaemon(ctx, round, warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if round < setupRounds-1 {
			cc.close()
			peak, err := dd.stop()
			if err != nil {
				return nil, err
			}
			rss = append(rss, peak)
			continue
		}
		d, c, warmBytes = dd, cc, wb
	}
	running := true
	defer func() {
		if running {
			c.close()
			d.stop()
		}
	}()
	o.attempted += len(warm)
	if !bytes.Equal(warmBytes[0], e.refs["e1"]) {
		o.fail("warm e1 at the reference seed differs from the reference")
	}

	arrivals := schedule(seed, seconds, warm)
	ops := make([]svcOp, len(arrivals))
	dues := make([]time.Duration, len(arrivals))
	for i, a := range arrivals {
		ops[i].arrival = a
		dues[i] = a.at
	}
	var scr *scraper
	if traced {
		scr = startScraper(ctx, c)
	}
	start, lags := openLoop(ctx, dues, func(i int, due time.Time) {
		ops[i].due = due
		c.do(ctx, &ops[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var prom map[string]float64
	if traced {
		prom = scr.finish(ctx, c)
	}
	c.close()
	running = false
	peak, err := d.stop()
	rss = append(rss, peak)
	if err != nil {
		o.fail("zeiotd: %v", err)
	}

	// Correctness, outside the timing.
	warmIndex := make(map[job]int, len(warm))
	for i, j := range warm {
		warmIndex[j] = i
	}
	var misses []job
	var missOps []*svcOp
	for i := range ops {
		op := &ops[i]
		o.attempted++
		switch {
		case op.err != nil:
			o.fail("%s seed %d: %v", op.job.exp, op.job.seed, op.err)
		case op.hit && !bytes.Equal(op.result, warmBytes[warmIndex[op.job]]):
			op.wrong = true
			o.fail("%s seed %d: read bytes differ from the warm-phase bytes", op.job.exp, op.job.seed)
		case !op.hit:
			misses = append(misses, op.job)
			missOps = append(missOps, op)
		}
	}
	fresh, plainSecs, _, err := recompute(ctx, misses, e.nproc, false)
	if err != nil {
		return nil, err
	}
	for i, op := range missOps {
		if !bytes.Equal(op.result, fresh[i]) {
			op.wrong = true
			o.fail("%s seed %d: write bytes differ from an in-process run", op.job.exp, op.job.seed)
		}
	}

	var lat []float64
	good := 0
	var last time.Time
	limit := missLimit
	if hitView {
		limit = hitLimit
	}
	for i := range ops {
		op := &ops[i]
		if op.hit != hitView || op.err != nil {
			continue
		}
		lat = append(lat, ms(op.latency()))
		if !op.wrong && op.latency() <= limit {
			good++
		}
		if op.done.After(last) {
			last = op.done
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no %s completed", className(hitView))
	}
	o.set("setup_s", median(setups))
	o.set("op_p50_ms", median(lat))
	o.set("goodput_per_s", float64(good)/last.Sub(start).Seconds())
	o.set("peak_rss_mb", slices.Max(rss))
	logf("%s: %d reads, %d writes, %s p50 %.3f ms, setups %v", name, len(ops)-len(misses), len(misses), className(hitView), median(lat), setups)
	if !traced {
		return o, nil
	}

	// Per-layer metrics.
	recomputed, recSecs, counters, err := recompute(ctx, misses, e.nproc, true)
	if err != nil {
		return nil, err
	}
	for i, op := range missOps {
		if !op.wrong && !bytes.Equal(op.result, recomputed[i]) {
			o.fail("%s seed %d: result with a recorder attached differs", op.job.exp, op.job.seed)
		}
	}
	o.set("obs.overhead_frac", recSecs/plainSecs-1)
	for k, v := range counters {
		o.set("counters."+k, v)
	}
	serviceLayers(o, ops, lags, prom)
	key, err := keyMicros(arrivals)
	if err != nil {
		return nil, err
	}
	o.set("confighash.key_us", key)
	t := newTracer(fmt.Sprintf("%s/seed%d", name, seed))
	for i := range ops {
		op := &ops[i]
		if op.err != nil {
			continue
		}
		root := t.add(-1, kindOp, className(op.hit), op.due, op.done)
		t.add(root, kindLayer, "zeiotd.submit", op.submit[0], op.submit[1])
		for _, p := range op.polls {
			t.add(root, kindLayer, "zeiotd.poll", p[0], p[1])
		}
		t.add(root, kindLayer, "zeiotd.fetch", op.fetch[0], op.fetch[1])
	}
	o.set("trace.coverage", coverage(t.spans, selfTimes(t.spans), kindOp))
	if err := t.write(e.tracePath(name, seed)); err != nil {
		return nil, err
	}
	o.set("error_rate", float64(o.failed)/float64(o.attempted))
	return o, nil
}

func className(hit bool) string {
	if hit {
		return "read"
	}
	return "write"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serviceLayers sets the latency tails and the daemon, job-table and
// load-generator metrics of a traced service run.
func serviceLayers(o *outcome, ops []svcOp, lags []time.Duration, prom map[string]float64) {
	var hit, miss, submit, fetch, polls, wait, run, lag []float64
	for i := range ops {
		op := &ops[i]
		if op.err != nil {
			continue
		}
		submit = append(submit, ms(op.submit[1].Sub(op.submit[0])))
		fetch = append(fetch, ms(op.fetch[1].Sub(op.fetch[0])))
		if op.hit {
			hit = append(hit, ms(op.latency()))
			continue
		}
		miss = append(miss, ms(op.latency()))
		polls = append(polls, float64(len(op.polls)))
		wait = append(wait, ms(op.queueWait))
		run = append(run, ms(op.run))
	}
	for _, l := range lags {
		lag = append(lag, ms(l))
	}
	setTail := func(name string, xs []float64, p float64) {
		v, used := tail(xs, p)
		if used != p {
			logf("%s: %d samples support only p%g", name, len(xs), 100*used)
		}
		o.set(name, v)
	}
	o.set("hit_p50_ms", median(hit))
	setTail("hit_p99_ms", hit, 0.99)
	o.set("miss_p50_ms", median(miss))
	setTail("miss_p95_ms", miss, 0.95)
	setTail("loadgen.lag_p99_ms", lag, 0.99)
	o.set("zeiotd.submit_ms", median(submit))
	o.set("zeiotd.fetch_ms", median(fetch))
	o.set("zeiotd.polls_per_miss", mean(polls))
	o.set("jobs.queue_wait_ms", median(wait))
	o.set("jobs.run_ms", median(run))
	hits, misses := prom["zeiotd_cache_hits"], prom["zeiotd_cache_misses"]
	if hits+misses > 0 {
		o.set("zeiotd.cache_hit_ratio", hits/(hits+misses))
	}
	o.set("zeiotd.rejected", prom["zeiotd_rejected_queue_full"]+prom["zeiotd_rejected_draining"])
	o.set("jobs.queue_depth_max", prom["queue_depth_max"])
}

// recompute runs the configs in-process, nproc at a time, and returns their
// `zeiotbench -json` bytes and the wall seconds taken. With rec each run
// gets its own obs.Registry, and the program's cache counters are summed.
func recompute(ctx context.Context, jobs []job, workers int, rec bool) ([][]byte, float64, map[string]float64, error) {
	out := make([][]byte, len(jobs))
	snaps := make([]*obs.Snapshot, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ex, err := zeiot.FindExperiment(jobs[i].exp)
				if err != nil {
					errs[i] = err
					continue
				}
				cfg := jobs[i].config()
				if rec {
					cfg.Recorder = obs.NewRegistry()
				}
				var res *zeiot.Result
				res, out[i], errs[i] = runInProcess(ctx, ex, cfg)
				if res != nil {
					snaps[i] = res.Metrics
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	took := time.Since(t0).Seconds()
	counters := map[string]float64{}
	for i, err := range errs {
		if err != nil {
			return nil, 0, nil, err
		}
		addCounters(counters, snaps[i])
	}
	return out, took, counters, nil
}

// keyMicros times zeiot.ConfigKey over every submission's config, three
// times over, and returns microseconds per key.
func keyMicros(arrivals []arrival) (float64, error) {
	t0 := time.Now()
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, a := range arrivals {
			if _, err := zeiot.ConfigKey(a.job.exp, a.job.config()); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(rounds*len(arrivals)), nil
}

// scraper samples the daemon's /metrics during a traced run to find the
// deepest job queue.
type scraper struct {
	stop     chan struct{}
	done     chan struct{}
	maxDepth float64
}

func startScraper(ctx context.Context, c *client) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			if m, err := scrape(ctx, c); err == nil {
				s.maxDepth = max(s.maxDepth, m["zeiotd_queue_depth"])
			}
		}
	}()
	return s
}

// finish stops sampling and returns a final scrape, with the deepest queue
// seen under "queue_depth_max".
func (s *scraper) finish(ctx context.Context, c *client) map[string]float64 {
	close(s.stop)
	<-s.done
	m, err := scrape(ctx, c)
	if err != nil {
		logf("scraping /metrics: %v", err)
		m = map[string]float64{}
	}
	m["queue_depth_max"] = max(s.maxDepth, m["zeiotd_queue_depth"])
	return m
}

// scrape reads the daemon's Prometheus text export into name → value,
// summing labelled series of one name.
func scrape(ctx context.Context, c *client) (map[string]float64, error) {
	b, code, err := c.request(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseProm(string(b)), nil
}

func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		out[name] += v
	}
	return out
}
