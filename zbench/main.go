// Command zbench is the zeiot benchmark. It drives the system from outside:
// the built zeiotbench and zeiotd binaries give the end-to-end numbers, and a
// separate traced run calls the exported functions of the zeiot package and
// its internal layers from the benchmark's own code to time each layer.
//
// zbench/run.sh builds the binaries from the checkout, then runs, from the
// checkout root,
//
//	zbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and the last line of standard output is one JSON object,
//
//	{"correct":true,"attempted":4,"failed":0,"metrics":{"setup_s":{"value":0.0123,"unit":"s"},...}}
//
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. zbench/README.md documents every workload and metric.
//
// Two more modes serve the people maintaining the benchmark:
//
//	zbench --workload <name> --steady 10   # 10 runs at seeds n..n+9; spread of every metric
//	zbench --write-ref                     # regenerate zbench/ref/*.json at the reference seed
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// workload is one named traffic the benchmark can run.
type workload struct {
	name, why string
	procs     int // GOMAXPROCS and -trainworkers of a pass; 0 = nproc
	run       func(ctx context.Context, e *env, seed uint64, seconds float64) (*outcome, error)
	traced    func(ctx context.Context, e *env, seed uint64, seconds float64) (*outcome, error)
}

// workloads lists every workload with the reason it exists; BENCHMARK.json
// repeats the names and reasons.
var workloads = []workload{
	{
		name: "microdeep-pipeline",
		why:  "CNN training and MicroDeep distribution dominate (zeiotbench -e e1,e2,e8); ml, csi and congestion do no work",
		run:  batchRunner(microdeepExps),
		traced: func(ctx context.Context, e *env, seed uint64, _ float64) (*outcome, error) {
			return tracedBatch(ctx, e, "microdeep-pipeline", microdeepExps, seed)
		},
	},
	{
		name: "classic-sensing",
		why:  "csi features, ml cross-validation and congestion estimators dominate (zeiotbench -e e3,e4,e5); no CNN code runs",
		// e3, e4 and e5 are single-threaded, so a pass runs at
		// GOMAXPROCS=1 and the run keeps nproc passes going at once. On the
		// 2-vCPU host the benchmark was tuned on, one pass at a time read
		// anywhere from 3.5 to 6.4 s back to back as the host's load moved,
		// and run medians of 5–7 such passes spread 16–29% over ten runs.
		procs: 1,
		run:   batchRunner(classicExps),
		traced: func(ctx context.Context, e *env, seed uint64, _ float64) (*outcome, error) {
			return tracedBatch(ctx, e, "classic-sensing", classicExps, seed)
		},
	},
	{
		name: "service-mix.hit",
		why:  "zeiotd under an open-loop read/write mix; measures the reads, which are result-cache hits over warmed e1 configs",
		run: func(ctx context.Context, e *env, seed uint64, seconds float64) (*outcome, error) {
			return serviceRun(ctx, e, "service-mix.hit", true, seed, seconds, false)
		},
		traced: func(ctx context.Context, e *env, seed uint64, seconds float64) (*outcome, error) {
			return serviceRun(ctx, e, "service-mix.hit", true, seed, seconds, true)
		},
	},
	{
		name: "service-mix.miss",
		why:  "the same zeiotd mix; measures the writes, cache misses of cheap experiments that each run, insert and add a job entry",
		run: func(ctx context.Context, e *env, seed uint64, seconds float64) (*outcome, error) {
			return serviceRun(ctx, e, "service-mix.miss", false, seed, seconds, false)
		},
		traced: func(ctx context.Context, e *env, seed uint64, seconds float64) (*outcome, error) {
			return serviceRun(ctx, e, "service-mix.miss", false, seed, seconds, true)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload name (see zbench/README.md)")
		seed     = flag.Uint64("seed", refSeed, "workload seed; the program sees only the inputs generated from it")
		seconds  = flag.Float64("seconds", 25, "length of the measured window")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		steady   = flag.Int("steady", 0, "run the workload this many times at consecutive seeds and report each metric's spread")
		writeRef = flag.Bool("write-ref", false, "regenerate zbench/ref/*.json from the built zeiotbench")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	e, err := newEnv()
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *writeRef {
		if err := writeRefs(ctx, e); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads:")
		for _, w := range workloads {
			logf("  %-20s %s", w.name, w.why)
		}
		return 2
	}
	e.procs = w.procs
	if e.procs == 0 {
		e.procs = e.nproc
	}
	if *steady > 0 {
		if err := steadyReport(ctx, w.name, *seed, *seconds, *trace, *steady); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	if err := e.loadRefs(); err != nil {
		logf("%v", err)
		return 2
	}
	fmt.Printf("zbench env: %s\n", e.describe())

	runFn, defs := w.run, endToEnd
	if *trace == 1 {
		runFn, defs = w.traced, perLayer
	}
	out, err := runFn(ctx, e, *seed, *seconds)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	line, err := out.result(defs, *trace == 0)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// tracePath is where a traced run writes its spans.
func (e *env) tracePath(workload string, seed uint64) string {
	return filepath.Join(e.work, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
}
