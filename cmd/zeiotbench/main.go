// Command zeiotbench regenerates the paper's tables and figures.
//
// Usage:
//
//	zeiotbench                 # run every experiment
//	zeiotbench -e e1,e6        # run selected experiments
//	zeiotbench -seed 7         # change the root seed
//	zeiotbench -parallel 4     # run up to 4 experiments concurrently
//	zeiotbench -trainworkers 4 # goroutines per experiment: concurrent fits, e8 patterns, batch splits (results unchanged)
//	zeiotbench -samples 0.5    # scale dataset/trial sizes (quick sweeps)
//	zeiotbench -repeats 5      # override accuracy-averaging repeat counts
//	zeiotbench -loss 0.1       # lossy-link fault injection (e8/e11 gain loss dimensions)
//	zeiotbench -quant          # add int8 fixed-point inference rows (e1/e2/e13)
//	zeiotbench -e e16 -nodes 100000  # crowd-scale node count (free-scale experiments)
//	zeiotbench -e e17 -harvest 2 -harvestprofile solar  # intermittent-power runtime knobs
//	zeiotbench -e e17 -checkpoint f.ck -killafter 200   # simulate a power failure (exits nonzero)
//	zeiotbench -e e17 -checkpoint f.ck -resume          # resume; output matches an uninterrupted run
//	zeiotbench -e e18 -modalities gait,har,gait+vitals  # restrict the cross-modal matrix rows
//	zeiotbench -timings        # keep per-stage wall times in the output
//	zeiotbench -metrics        # collect observability metrics; keep them in -json output
//	zeiotbench -metrics-out m.prom  # also export them as Prometheus text
//	zeiotbench -pprof :6060    # serve net/http/pprof while running
//	zeiotbench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	zeiotbench -list           # list experiments
//
// The per-run flags -trainworkers, -samples, -repeats, -loss, -lossburst,
// -lossretries, -quant, -nodes, -harvest and -harvestprofile also accept a
// comma-separated list matching the -e list, so -parallel can legally run
// differently-configured experiments concurrently:
//
//	zeiotbench -e e1,e8 -parallel 2 -trainworkers 1,4 -loss 0,0.1
//
// Observability (-metrics / -metrics-out) never changes any result: each
// experiment gets its own obs.Registry, recording reads values the run
// already computed, and metric names carrying wall time use the walltime_
// prefix so the deterministic remainder diffs byte-for-byte across runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"zeiot"
	"zeiot/internal/obs"
)

func main() {
	os.Exit(run())
}

// perRun parses a per-run flag value: a single value broadcasts to all n
// runs, a comma-separated list must have exactly n entries.
func perRun[T any](name, val string, n int, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(val, ",")
	if len(parts) != 1 && len(parts) != n {
		return nil, fmt.Errorf("-%s has %d values for %d experiments (give one value or one per -e entry)", name, len(parts), n)
	}
	out := make([]T, n)
	for i := range out {
		s := parts[0]
		if len(parts) == n {
			s = parts[i]
		}
		v, err := parse(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q: %v", name, s, err)
		}
		out[i] = v
	}
	return out, nil
}

func run() int {
	var (
		ids      = flag.String("e", "", "comma-separated experiment ids (default: all)")
		seed     = flag.Uint64("seed", 1, "root random seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonOut  = flag.Bool("json", false, "emit results as a JSON array instead of tables")
		parallel = flag.Int("parallel", 1, "max experiments run concurrently (0 = NumCPU)")
		timings  = flag.Bool("timings", false, "keep per-stage wall times in the output (nondeterministic, so off by default)")
		trainW   = flag.String("trainworkers", "0", "goroutines per experiment (0 = NumCPU): independent fits and e8's failure patterns run concurrently, and each fit's mini-batches split over what is left; any value yields bit-identical results")
		samples  = flag.String("samples", "1", "sample-count scale: multiplies dataset/trial sizes (1 = paper defaults)")
		repeats  = flag.String("repeats", "0", "accuracy-averaging repeats (0 = experiment default)")
		loss     = flag.String("loss", "0", "per-link drop probability for fault injection (0 = disabled; e8 gains a loss sweep, e11 charges retransmission energy)")
		lossB    = flag.String("lossburst", "false", "use Gilbert-Elliott burst loss instead of independent drops")
		lossR    = flag.String("lossretries", "3", "max retransmissions per hop for the reliable transport (0 = no retries)")
		quant    = flag.String("quant", "false", "add int8 fixed-point inference accuracy rows to the CNN experiments (e1/e2/e13)")
		nodesF   = flag.String("nodes", "0", "node count for free-scale experiments (e16; 0 = experiment default)")
		harvF    = flag.String("harvest", "0", "harvest power scale for the intermittent runtime (e17; 0 or 1 = paper defaults)")
		harvP    = flag.String("harvestprofile", "", "harvest trace profile: rf, solar, thermal, or mixed (e17; default mixed)")
		modsF    = flag.String("modalities", "", "comma-separated modality names for the cross-modal matrix (e18; empty = every registered modality). Commas pick modalities here, not per--e values")
		ckptF    = flag.String("checkpoint", "", "checkpoint file for the e17 kill/resume flow")
		killF    = flag.Int("killafter", 0, "simulate a power failure after N training batches: write -checkpoint and exit nonzero (e17)")
		resumeF  = flag.Bool("resume", false, "resume e17 from the -checkpoint file instead of starting fresh")
		metrics  = flag.Bool("metrics", false, "collect observability metrics and keep the metrics block in -json output")
		metOut   = flag.String("metrics-out", "", "write collected metrics as Prometheus text to this path (implies collection)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) while experiments run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf  = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	if *pprofA != "" {
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintf(os.Stderr, "zeiotbench: pprof server: %v\n", err)
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zeiotbench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "zeiotbench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "zeiotbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "zeiotbench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range zeiot.Experiments() {
			fmt.Printf("%-4s %s\n     paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return 0
	}

	var selected []zeiot.Experiment
	if *ids == "" {
		selected = zeiot.Experiments()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, err := zeiot.FindExperiment(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			selected = append(selected, e)
		}
	}

	n := len(selected)
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "zeiotbench: %v\n", err)
		return 2
	}
	twVals, err := perRun("trainworkers", *trainW, n, strconv.Atoi)
	if err != nil {
		return fail(err)
	}
	scVals, err := perRun("samples", *samples, n, parseFloat)
	if err != nil {
		return fail(err)
	}
	rpVals, err := perRun("repeats", *repeats, n, strconv.Atoi)
	if err != nil {
		return fail(err)
	}
	lossVals, err := perRun("loss", *loss, n, parseFloat)
	if err != nil {
		return fail(err)
	}
	lbVals, err := perRun("lossburst", *lossB, n, strconv.ParseBool)
	if err != nil {
		return fail(err)
	}
	lrVals, err := perRun("lossretries", *lossR, n, strconv.Atoi)
	if err != nil {
		return fail(err)
	}
	qVals, err := perRun("quant", *quant, n, strconv.ParseBool)
	if err != nil {
		return fail(err)
	}
	ndVals, err := perRun("nodes", *nodesF, n, strconv.Atoi)
	if err != nil {
		return fail(err)
	}
	hvVals, err := perRun("harvest", *harvF, n, parseFloat)
	if err != nil {
		return fail(err)
	}
	hpVals, err := perRun("harvestprofile", *harvP, n, func(s string) (string, error) { return s, nil })
	if err != nil {
		return fail(err)
	}
	if (*killF > 0 || *resumeF) && *ckptF == "" {
		return fail(fmt.Errorf("-killafter/-resume require -checkpoint <path>"))
	}
	ckpt := zeiot.CheckpointConfig{Path: *ckptF, KillAfterBatches: *killF, Resume: *resumeF}
	if err := checkpointScope(selected, ckpt); err != nil {
		return fail(err)
	}
	var mods []string
	if *modsF != "" {
		for _, m := range strings.Split(*modsF, ",") {
			mods = append(mods, strings.TrimSpace(m))
		}
	}
	return runSelected(selected, *seed, *parallel, *jsonOut, *timings, *metrics, *metOut, twVals, scVals, rpVals, lossVals, lbVals, lrVals, qVals, ndVals, hvVals, hpVals, mods, ckpt)
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// checkpointOwners is the ownership rule for -checkpoint/-killafter/-resume:
// the experiments whose Run reads RunConfig.Checkpoint. Keep it in sync with
// the engine (today only e17's intermittent-power runtime checkpoints).
var checkpointOwners = map[string]bool{"e17": true}

// checkpointScope validates the checkpoint flags against the -e selection.
// Unlike -nodes and -modalities — per-value knobs whose non-owning
// experiments ignore them harmlessly — a checkpoint run is stateful: it
// writes and consumes one file and may deliberately exit nonzero mid-run.
// Broadcasting it to every -e entry (the historical behaviour) handed
// non-owning experiments a config they silently dropped and let two
// checkpoint runs under -parallel contend on one file, so a non-zero
// checkpoint config requires exactly one selected experiment, and that
// experiment must own the kill/resume flow. The zero config always passes.
func checkpointScope(selected []zeiot.Experiment, ckpt zeiot.CheckpointConfig) error {
	if ckpt == (zeiot.CheckpointConfig{}) {
		return nil
	}
	if len(selected) != 1 {
		ids := make([]string, len(selected))
		for i, e := range selected {
			ids[i] = e.ID
		}
		return fmt.Errorf("-checkpoint/-killafter/-resume drive a single experiment's kill/resume flow, but %d experiments are selected (%s); pass -e with exactly one",
			len(selected), strings.Join(ids, ","))
	}
	if !checkpointOwners[selected[0].ID] {
		return fmt.Errorf("-checkpoint: %s does not own a kill/resume flow (checkpoint-owning experiments: e17)", selected[0].ID)
	}
	return nil
}

func runSelected(selected []zeiot.Experiment, seed uint64, parallel int, jsonOut, timings, metrics bool, metricsOut string,
	twVals []int, scVals []float64, rpVals []int, lossVals []float64, lbVals []bool, lrVals []int, qVals []bool, ndVals []int,
	hvVals []float64, hpVals []string, mods []string, ckpt zeiot.CheckpointConfig) int {

	// Loss options explicitly passed while every run has -loss 0 would be
	// silently dead; surface them so RunConfig.Validate rejects the combination.
	var lossBurstSet, lossRetriesSet bool
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "lossburst":
			lossBurstSet = true
		case "lossretries":
			lossRetriesSet = true
		}
	})
	anyLoss := false
	for _, v := range lossVals {
		if v > 0 {
			anyLoss = true
		}
	}

	// One registry per experiment so concurrent runs never interleave their
	// metrics and the Prometheus export can prefix each block by id.
	collect := metrics || metricsOut != ""
	regs := make([]*obs.Registry, len(selected))

	cfgs := make([]*zeiot.RunConfig, len(selected))
	for i := range selected {
		rc := zeiot.DefaultRunConfig()
		rc.Seed = seed
		if collect {
			regs[i] = obs.NewRegistry()
			rc.Recorder = regs[i]
		}
		rc.TrainWorkers = twVals[i]
		rc.SampleScale = scVals[i]
		rc.Repeats = rpVals[i]
		rc.Quantize = qVals[i]
		rc.Nodes = ndVals[i]
		rc.Harvest = zeiot.HarvestConfig{PowerScale: hvVals[i], Profile: hpVals[i]}
		// Ownership rule: the checkpoint config reaches only the experiments
		// that own a kill/resume flow. checkpointScope already rejected any
		// selection this gate would silently drop it from.
		if checkpointOwners[selected[i].ID] {
			rc.Checkpoint = ckpt
		}
		rc.Modalities = mods
		if lossVals[i] > 0 {
			lc := zeiot.DefaultLossConfig()
			lc.Enabled = true
			lc.DropProb = lossVals[i]
			lc.Burst = lbVals[i]
			lc.MaxRetries = lrVals[i]
			rc.Loss = lc
		} else if !anyLoss {
			if lossBurstSet {
				rc.Loss.Burst = lbVals[i]
			}
			if lossRetriesSet {
				rc.Loss.MaxRetries = lrVals[i]
			}
			rc.Loss.DropProb = lossVals[i]
		}
		if err := rc.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "zeiotbench: %s: %v\n", selected[i].ID, err)
			return 2
		}
		cfgs[i] = rc
	}

	workers := parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(selected) {
		workers = len(selected)
	}

	// Each run owns its RunConfig and derives every rng stream from the root
	// seed, so running experiments concurrently — even with different
	// configs — cannot change any result, only the wall clock. Results are
	// collected per index and printed in order.
	ctx := context.Background()
	results := make([]*zeiot.Result, len(selected))
	durations := make([]time.Duration, len(selected))
	errs := make([]error, len(selected))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, e := range selected {
		wg.Add(1)
		go func(i int, e zeiot.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			results[i], errs[i] = e.Run(ctx, cfgs[i])
			durations[i] = time.Since(start)
		}(i, e)
	}
	wg.Wait()

	failed := 0
	var jsonResults []*zeiot.Result
	for i, e := range selected {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, errs[i])
			failed++
			continue
		}
		// Timings are the one nondeterministic Result field; strip them
		// unless asked so -json output diffs byte-for-byte across runs. The
		// metrics block likewise stays out of -json unless -metrics, so
		// -metrics-out alone leaves the JSON identical to an uninstrumented
		// run (the golden-diff property ci.sh checks).
		if !timings {
			results[i].Timings = nil
		}
		if !metrics {
			results[i].Metrics = nil
		}
		if jsonOut {
			jsonResults = append(jsonResults, results[i])
			continue
		}
		if _, err := results[i].WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("(%s in %s%s)\n\n", e.ID, durations[i].Round(time.Millisecond), stageSummary(results[i].Timings))
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResults); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if metricsOut != "" {
		if err := writeMetrics(metricsOut, selected, regs, errs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeMetrics exports every successful experiment's registry as Prometheus
// text, each block prefixed zeiot_<id>_, in -e order.
func writeMetrics(path string, selected []zeiot.Experiment, regs []*obs.Registry, errs []error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i, e := range selected {
		if errs[i] != nil || regs[i] == nil {
			continue
		}
		if err := regs[i].Snapshot().WritePrometheus(f, "zeiot_"+obs.SanitizeName(e.ID)+"_"); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// stageSummary renders per-stage timings as "; dataset 12ms, train 340ms"
// for the table footer, or "" when timings were stripped.
func stageSummary(t zeiot.Timings) string {
	if len(t) == 0 {
		return ""
	}
	var parts []string
	for _, s := range t.Stages() {
		if s == zeiot.StageTotal {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %s", s, t[s].Round(time.Millisecond)))
	}
	if len(parts) == 0 {
		return ""
	}
	return "; " + strings.Join(parts, ", ")
}
