package main

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"time"
)

var (
	microdeepExps = []string{"e1", "e2", "e8"}
	classicExps   = []string{"e3", "e4", "e5"}
)

const (
	// setupLaunches is how many zeiotbench start-ups a batch run times for
	// setup_s; it reports their median. One start-up takes a few
	// milliseconds, so many are cheap and keep the median steady.
	setupLaunches = 31
	// minPasses is the fewest passes a batch run makes, however short
	// --seconds is.
	minPasses = 3
)

// batchRunner returns the end-to-end run of a batch workload: one pass is
// one fresh `zeiotbench -e <exps> -json` process.
func batchRunner(exps []string) func(context.Context, *env, uint64, float64) (*outcome, error) {
	return func(ctx context.Context, e *env, seed uint64, seconds float64) (*outcome, error) {
		return batchRun(ctx, e, exps, seed, seconds)
	}
}

// batchRun measures passes for the given number of seconds (at least
// minPasses) in e.lanes() lanes, each running one pass after another.
// setup_s is the median start-up of a zeiotbench process (exec → `-list`
// printed → exit). Every pass's bytes must equal the reference at the
// reference seed, and the first pass at any other seed.
func batchRun(ctx context.Context, e *env, exps []string, seed uint64, seconds float64) (*outcome, error) {
	o := newOutcome()
	setups := make([]float64, setupLaunches)
	for i := range setups {
		r, err := e.runProc(ctx, e.procs, "zeiotbench", "-list")
		if err != nil {
			return nil, err
		}
		setups[i] = r.wall.Seconds()
	}
	want, err := e.expected(exps, seed)
	if err != nil {
		return nil, err
	}
	args := []string{"-e", strings.Join(exps, ","), "-seed", strconv.FormatUint(seed, 10),
		"-trainworkers", strconv.Itoa(e.procs), "-json"}

	var (
		mu      sync.Mutex
		results []procResult
		wg      sync.WaitGroup
	)
	start := time.Now()
	for lane := 0; lane < e.lanes(); lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				more := o.attempted < minPasses || time.Since(start).Seconds() < seconds
				if more {
					o.attempted++
				}
				mu.Unlock()
				if !more {
					return
				}
				r, err := e.runProc(ctx, e.procs, "zeiotbench", args...)
				mu.Lock()
				if err != nil {
					o.fail("pass: %v", err)
				} else {
					results = append(results, r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var passes, cpus, rss []float64
	for i, r := range results {
		passes = append(passes, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
		if want == nil {
			want = r.out
		} else if !bytes.Equal(r.out, want) {
			o.fail("pass %d: result bytes differ from the reference", i+1)
		}
	}
	o.set("setup_s", median(setups))
	if len(passes) > 0 {
		o.set("op_p50_ms", 1000*median(passes))
		o.set("peak_rss_mb", median(rss))
	}
	logf("%d lanes, %d passes: wall s %.3f, cpu s %.3f, peak RSS MB %.1f", e.lanes(), len(passes), passes, cpus, rss)
	return o, nil
}
