package zeiot

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"zeiot/internal/microdeep"
	"zeiot/internal/modality"
	"zeiot/internal/obs"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

// RunConfig carries every knob a single experiment run reads. Each run gets
// its own config — nothing is read from process globals — so concurrent runs
// with different worker counts, fault-injection settings, or sample scales
// are first-class: hand each goroutine its own RunConfig and the results are
// exactly what the same configs produce serially.
type RunConfig struct {
	// Seed is the root random seed; every rng stream the run touches is
	// derived from it by named splits.
	Seed uint64
	// TrainWorkers is the worker count handed to the data-parallel CNN
	// training paths, and it also bounds the goroutines of e8's
	// distributed-inference sweep; 0 selects runtime.NumCPU(). Both are
	// bit-identical to sequential at every worker count, so this moves
	// wall time only, never results.
	TrainWorkers int
	// Loss enables lossy-link fault injection (see LossConfig). The zero
	// value disables it and every experiment runs the fault-free path.
	Loss LossConfig
	// SampleScale multiplies each experiment's default sample, trial, and
	// simulated-duration counts (rounded, floored at 1). 0 or 1 keeps the
	// defaults; 0.5 halves dataset sizes for quick sweeps. Scaled runs
	// are deterministic but not comparable to default-scale summaries.
	SampleScale float64
	// Repeats overrides the experiment's accuracy-averaging repeat count
	// (independent training seeds whose accuracies are averaged); 0 keeps
	// each experiment's own default (3 for e2, 1 for the single-run
	// experiments).
	Repeats int
	// Nodes overrides the node count of the experiments that own a
	// free-scale deployment (currently e16's crowd field, default 100,000).
	// 0 keeps each experiment's default; experiments with paper-fixed
	// topologies ignore it.
	//
	// Ownership rule: an experiment honours Nodes only if its topology is
	// free-scale — sized by the scenario, not pinned by the paper. The
	// paper-fixed deployments (e2's 5×10 lounge, e7's corridor, e17's 8×8
	// harvest field, ...) silently ignore it by design, because resizing
	// them would break the claim the experiment reproduces. Use the
	// zeiotbench comma-list form (-e e16,e7 -nodes 3000,0) to scope an
	// override to the experiments that own one.
	Nodes int
	// Quantize additionally evaluates trained CNNs through int8 fixed-point
	// inference (per-tensor symmetric, calibrated activation scales, int32
	// accumulators) in the experiments that train CNNs (e1, e2, e13), adding
	// quantized accuracy rows to their summaries. Float results are
	// untouched: summaries gain rows, existing rows keep their bytes.
	Quantize bool
	// Harvest scales and shapes the intermittent-power runtime (E17's
	// harvest-driven training and brownout inference). The zero value keeps
	// E17's paper-scale defaults and leaves every other experiment untouched.
	Harvest HarvestConfig
	// Checkpoint drives E17's kill/resume flow: a simulated power failure
	// after N training batches, and resuming from the resulting checkpoint
	// file to a byte-identical result. The zero value disables both.
	Checkpoint CheckpointConfig
	// Modalities restricts the modality set of the experiments that sweep
	// the modality registry (currently e18's benchmark matrix). Empty keeps
	// every registered modality. Names must be registered in
	// internal/modality (e.g. gait, lounge, csi, rfid, har, intrusion,
	// vitals, motion, gait+vitals).
	//
	// Ownership rule: like Nodes, an experiment honours Modalities only if
	// it owns a registry sweep; the single-modality experiments (e1's gait,
	// e2's lounge, ...) ignore it by design because their modality is the
	// claim they reproduce. Per-modality rng streams are derived by name,
	// so filtering changes which rows appear, never the values of the rows
	// that remain.
	//
	// The list is a set: beginRun normalizes it to sorted, deduplicated
	// order before any experiment reads it, so two configs naming the same
	// modalities in different orders are the same run (and share a
	// ConfigKey).
	Modalities []string
	// Recorder receives the run's observability stream (training curves,
	// cache hit rates, per-node radio scalars, stage timings). Nil disables
	// observation entirely — the instrumented paths cost one nil check.
	// Recording never draws from any rng stream and never reorders
	// arithmetic, so results are byte-identical with and without it. Clone
	// shares the recorder (interface copy), so per-run variants derived
	// from one base config feed one registry unless reassigned.
	Recorder obs.Recorder
}

// DefaultRunConfig returns the default run: seed 1, NumCPU training
// workers, fault injection off, full sample counts, experiment-default
// repeats.
func DefaultRunConfig() *RunConfig {
	return &RunConfig{Seed: 1, SampleScale: 1}
}

// Validate reports the first invalid field. A zero-value RunConfig is
// valid (SampleScale 0 means 1). Loss options set while Loss.Enabled is
// false are an error rather than silently ignored — the historical CLI
// behaviour of dropping -lossretries/-lossburst when -loss was 0.
func (c *RunConfig) Validate() error {
	if c.TrainWorkers < 0 {
		return fmt.Errorf("zeiot: RunConfig.TrainWorkers %d is negative (0 selects NumCPU)", c.TrainWorkers)
	}
	if c.SampleScale < 0 {
		return fmt.Errorf("zeiot: RunConfig.SampleScale %g is negative (0 or 1 keeps the default sample counts)", c.SampleScale)
	}
	if c.Repeats < 0 {
		return fmt.Errorf("zeiot: RunConfig.Repeats %d is negative (0 keeps the experiment default)", c.Repeats)
	}
	if c.Nodes < 0 {
		return fmt.Errorf("zeiot: RunConfig.Nodes %d is negative (0 keeps the experiment default)", c.Nodes)
	}
	if c.Harvest.PowerScale < 0 {
		return fmt.Errorf("zeiot: RunConfig.Harvest.PowerScale %g is negative (0 or 1 keeps the default harvest powers)", c.Harvest.PowerScale)
	}
	if !validHarvestProfile(c.Harvest.Profile) {
		return fmt.Errorf("zeiot: RunConfig.Harvest.Profile %q unknown (want rf, solar, thermal, or mixed)", c.Harvest.Profile)
	}
	if c.Checkpoint.KillAfterBatches < 0 {
		return fmt.Errorf("zeiot: RunConfig.Checkpoint.KillAfterBatches %d is negative (0 disables the simulated power failure)", c.Checkpoint.KillAfterBatches)
	}
	if c.Checkpoint.enabled() && c.Checkpoint.Path == "" {
		return fmt.Errorf("zeiot: RunConfig.Checkpoint requests kill/resume (killafter %d, resume %v) but Path is empty",
			c.Checkpoint.KillAfterBatches, c.Checkpoint.Resume)
	}
	if !c.Checkpoint.enabled() && c.Checkpoint.Path != "" {
		return fmt.Errorf("zeiot: RunConfig.Checkpoint.Path %q set but neither KillAfterBatches nor Resume is; set one or clear the path", c.Checkpoint.Path)
	}
	for _, m := range c.Modalities {
		if _, err := modality.New(m); err != nil {
			return fmt.Errorf("zeiot: RunConfig.Modalities: %w", err)
		}
	}
	l := c.Loss
	if l.DropProb < 0 || l.DropProb > 1 {
		return fmt.Errorf("zeiot: RunConfig.Loss.DropProb %g outside [0, 1]", l.DropProb)
	}
	if l.MaxRetries < 0 {
		return fmt.Errorf("zeiot: RunConfig.Loss.MaxRetries %d is negative (0 disables retries)", l.MaxRetries)
	}
	if !l.Enabled && (l.Burst || l.DropProb != 0 || l.MaxRetries != 0) {
		return fmt.Errorf("zeiot: loss options set (drop %g, burst %v, retries %d) but Loss.Enabled is false; enable fault injection or clear the options",
			l.DropProb, l.Burst, l.MaxRetries)
	}
	return nil
}

// Clone returns an independent copy, so a caller can derive per-run
// variants from a shared base config. The Modalities slice is copied, so a
// variant can append or reassign without mutating the base.
func (c *RunConfig) Clone() *RunConfig {
	out := *c
	out.Modalities = append([]string(nil), c.Modalities...)
	return &out
}

// workers resolves the effective training worker count.
func (c *RunConfig) workers() int {
	if c.TrainWorkers > 0 {
		return c.TrainWorkers
	}
	return runtime.NumCPU()
}

// scaled applies SampleScale to an experiment's default count, rounding and
// flooring at 1. At the default scale it returns base unchanged, so
// DefaultRunConfig reproduces the historical datasets exactly.
func (c *RunConfig) scaled(base int) int {
	n := int(math.Round(float64(base) * c.SampleScale))
	if n < 1 {
		n = 1
	}
	return n
}

// repeatsOr resolves the accuracy-averaging repeat count against the
// experiment's default.
func (c *RunConfig) repeatsOr(def int) int {
	if c.Repeats > 0 {
		return c.Repeats
	}
	return def
}

// harness is the per-invocation state threaded through one experiment run:
// the (normalized, privately owned) config, the context, and the per-stage
// wall-clock instrumentation that ends up in Result.Timings.
type harness struct {
	ctx     context.Context
	cfg     *RunConfig
	t0      time.Time
	last    time.Time
	timings Timings
}

// beginRun normalizes and validates the config and starts the stage clock.
// A nil cfg means DefaultRunConfig(); the caller's config is cloned, never
// mutated, so one RunConfig may back many concurrent runs.
func beginRun(ctx context.Context, cfg *RunConfig) (*harness, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg == nil {
		cfg = DefaultRunConfig()
	} else {
		cfg = cfg.Clone()
	}
	if cfg.SampleScale == 0 {
		cfg.SampleScale = 1
	}
	cfg.Modalities = canonicalModalities(cfg.Modalities)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rec := cfg.Recorder; rec != nil {
		// Runs sharing one recorder — the documented Clone behaviour — used
		// to clobber each other's config_* gauges last-writer-wins and
		// interleave their series, so an exported snapshot misdescribed the
		// runs that produced it. Each run now claims a run number from the
		// recorder and, from the second run on, records under a "run<N>_"
		// prefix (kept inside WallTimePrefix so Deterministic still strips
		// wall-time entries). The first run keeps unprefixed names, so a
		// single-run registry exports exactly the bytes it always did.
		if seq, ok := rec.(obs.RunSequencer); ok {
			if n := seq.NextRun(); n > 1 {
				rec = obs.WithPrefix(rec, fmt.Sprintf("run%d_", n))
				cfg.Recorder = rec
			}
		}
	}
	if rec := cfg.Recorder; rec != nil {
		// The resolved config, as gauges, so an exported snapshot is
		// self-describing about the run that produced it. Raw field values
		// (not the NumCPU-resolved worker count) keep these deterministic.
		rec.Gauge("config_seed", float64(cfg.Seed))
		rec.Gauge("config_trainworkers", float64(cfg.TrainWorkers))
		rec.Gauge("config_sample_scale", cfg.SampleScale)
		rec.Gauge("config_repeats", float64(cfg.Repeats))
		// Only non-default knobs add gauges, so default-config exports keep
		// their bytes as knobs are added.
		if cfg.Quantize {
			rec.Gauge("config_quantize", 1)
		}
		if cfg.Nodes > 0 {
			rec.Gauge("config_nodes", float64(cfg.Nodes))
		}
		if cfg.Loss.Enabled {
			rec.Gauge("config_loss_drop_prob", cfg.Loss.DropProb)
			rec.Gauge("config_loss_max_retries", float64(cfg.Loss.MaxRetries))
		}
		if s := cfg.Harvest.PowerScale; s != 0 && s != 1 {
			rec.Gauge("config_harvest_power_scale", s)
		}
		if k := cfg.Checkpoint.KillAfterBatches; k > 0 {
			rec.Gauge("config_checkpoint_kill_after", float64(k))
		}
		if len(cfg.Modalities) > 0 {
			rec.Gauge("config_modalities", float64(len(cfg.Modalities)))
		}
	}
	now := time.Now()
	return &harness{ctx: ctx, cfg: cfg, t0: now, last: now, timings: Timings{}}, nil
}

// mark closes the current stage: the wall time since the previous mark (or
// since beginRun) accumulates under the given stage name, so marks inside
// loops sum across iterations.
func (h *harness) mark(stage string) {
	now := time.Now()
	h.timings[stage] += now.Sub(h.last)
	h.last = now
}

// finish stamps the total wall time, attaches the timings to the result,
// and returns it, so experiments can `return h.finish(res), nil`.
//
// With a snapshotting Recorder configured, finish also mirrors the stage
// timings into walltime_-prefixed gauges (stripped by Snapshot.Deterministic,
// like Timings itself is stripped by diffing tools) and attaches the
// recorder's snapshot as Result.Metrics.
func (h *harness) finish(res *Result) *Result {
	h.timings[StageTotal] = time.Since(h.t0)
	res.Timings = h.timings
	if rec := h.cfg.Recorder; rec != nil {
		for _, stage := range h.timings.Stages() {
			rec.Gauge(obs.WallTimePrefix+"stage_"+stage+"_seconds", h.timings[stage].Seconds())
		}
		if s, ok := rec.(obs.Snapshotter); ok {
			res.Metrics = s.Snapshot()
		}
	}
	return res
}

// observeWSN publishes a network's radio and routing state under prefix:
// the per-node cumulative Tx/Rx charge scalars as two series (one point per
// node, in node order, so the export is deterministic) and the route-cache
// hit/miss totals as gauges. A no-op without a recorder.
func (h *harness) observeWSN(prefix string, w *wsn.Network) {
	rec := h.cfg.Recorder
	if rec == nil {
		return
	}
	for i := 0; i < w.NumNodes(); i++ {
		rec.Observe(prefix+"node_tx_scalars", float64(w.Node(i).TxScalars))
		rec.Observe(prefix+"node_rx_scalars", float64(w.Node(i).RxScalars))
	}
	h.observeWSNCaches(prefix, w)
}

// observeWSNCaches publishes a network's routing-cache and rebuild counters
// under prefix: route-memo hit/miss totals plus the repair counters of
// wsn.Network.RebuildStats (full structural builds, per-shard table
// rebuilds, per-source overlay builds). E16 uses this directly because at
// crowd scale the per-node series observeWSN also emits would dominate the
// export. A no-op without a recorder.
func (h *harness) observeWSNCaches(prefix string, w *wsn.Network) {
	rec := h.cfg.Recorder
	if rec == nil {
		return
	}
	hits, misses := w.RouteCacheStats()
	rec.Gauge(prefix+"route_cache_hits", float64(hits))
	rec.Gauge(prefix+"route_cache_misses", float64(misses))
	full, shard, overlay := w.RebuildStats()
	rec.Gauge(prefix+"full_rebuilds", float64(full))
	rec.Gauge(prefix+"shard_rebuilds", float64(shard))
	rec.Gauge(prefix+"overlay_builds", float64(overlay))
}

// observePlanCache publishes a unit graph's transfer-plan cache hit/miss
// totals under prefix. A no-op without a recorder.
func (h *harness) observePlanCache(prefix string, g *microdeep.Graph) {
	rec := h.cfg.Recorder
	if rec == nil {
		return
	}
	hits, misses := g.PlanCacheStats()
	rec.Gauge(prefix+"plan_cache_hits", float64(hits))
	rec.Gauge(prefix+"plan_cache_misses", float64(misses))
}

// averageOver is the shared repeats-averaging loop: it runs fn for every
// round r in [0, repeats) and returns the mean of its results, checking the
// context between rounds. Stream derivation is the caller's business (see
// trainAveraged for the training-seed convention).
func (h *harness) averageOver(repeats int, fn func(r int) (float64, error)) (float64, error) {
	if repeats < 1 {
		repeats = 1
	}
	sum := 0.0
	for r := 0; r < repeats; r++ {
		if err := h.ctx.Err(); err != nil {
			return 0, err
		}
		v, err := fn(r)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(repeats), nil
}

// trainAveraged is the shared accuracy-averaging training loop: it runs fn
// over `repeats` independent seed streams and returns the mean of the
// returned accuracies. With repeats <= 1 the stream is root.Split(label) —
// the historical single-run derivation — and with repeats > 1 round r draws
// root.Split(label + "-" + r), matching the historical e2 averaging loop,
// so DefaultRunConfig reproduces the pre-RunConfig rng streams exactly.
func (h *harness) trainAveraged(root *rng.Stream, label string, repeats int, fn func(s *rng.Stream) (float64, error)) (float64, error) {
	if repeats <= 1 {
		return fn(root.Split(label))
	}
	return h.averageOver(repeats, func(r int) (float64, error) {
		return fn(root.Split(fmt.Sprintf("%s-%d", label, r)))
	})
}
