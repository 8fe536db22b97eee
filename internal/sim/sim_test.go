package sim

import (
	"sort"
	"testing"
	"time"

	"zeiot/internal/rng"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New()
	var order []int
	k.At(30*time.Millisecond, func() { order = append(order, 3) })
	k.At(10*time.Millisecond, func() { order = append(order, 1) })
	k.At(20*time.Millisecond, func() { order = append(order, 2) })
	runAll(k)
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { order = append(order, i) })
	}
	runAll(k)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	k := New()
	var at time.Duration
	k.At(42*time.Millisecond, func() { at = k.Now() })
	runAll(k)
	if at != 42*time.Millisecond {
		t.Fatalf("Now inside event = %v", at)
	}
}

func TestAfterIsRelative(t *testing.T) {
	k := New()
	var second time.Duration
	k.At(10*time.Millisecond, func() {
		k.After(5*time.Millisecond, func() { second = k.Now() })
	})
	runAll(k)
	if second != 15*time.Millisecond {
		t.Fatalf("After fired at %v, want 15ms", second)
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	k := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	k.Run(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1s and 2s only", fired)
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("clock = %v after horizon run", k.Now())
	}
	// Resuming must execute the remaining event.
	runAll(k)
	if len(fired) != 3 {
		t.Fatalf("resume did not run remaining events: %v", fired)
	}
}

func TestSchedulingInsideEvents(t *testing.T) {
	k := New()
	hops := 0
	var step func()
	step = func() {
		hops++
		if hops < 100 {
			k.After(time.Millisecond, step)
		}
	}
	k.At(0, step)
	runAll(k)
	if hops != 100 {
		t.Fatalf("hops = %d", hops)
	}
	if k.Now() != 99*time.Millisecond {
		t.Fatalf("final clock = %v", k.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	k := New()
	k.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(500*time.Millisecond, func() {})
	})
	runAll(k)
}

// TestRandomScheduleFiresInOrder drives the kernel with random At and After
// calls over a handful of timestamps (so most events tie), events that
// schedule further events at their own time or later, and several Run
// horizons with events added from outside between them. Each call gets the
// next sequence number, as the kernel's insertion order does; the fired
// order must equal a stable sort by (at, seq), and each Run must fire
// exactly the events due by its horizon.
func TestRandomScheduleFiresInOrder(t *testing.T) {
	type stamp struct {
		at  time.Duration
		seq int
	}
	for seed := uint64(1); seed <= 100; seed++ {
		stream := rng.New(seed)
		k := New()
		var scheduled, fired []stamp
		var add func(at time.Duration, viaAfter bool)
		add = func(at time.Duration, viaAfter bool) {
			st := stamp{at: at, seq: len(scheduled)}
			scheduled = append(scheduled, st)
			fn := func() {
				if k.Now() != st.at {
					t.Fatalf("seed %d: event %+v fired at %v", seed, st, k.Now())
				}
				fired = append(fired, st)
				for c := stream.Intn(3); c > 0 && len(scheduled) < 3000; c-- {
					add(k.Now()+time.Duration(stream.Intn(3))*time.Millisecond, stream.Bool(0.5))
				}
			}
			if viaAfter {
				k.After(at-k.Now(), fn)
			} else {
				k.At(at, fn)
			}
		}
		for horizon := time.Duration(0); horizon <= 40*time.Millisecond; horizon += time.Duration(stream.Intn(12)) * time.Millisecond {
			for n := stream.Intn(30); n > 0; n-- {
				add(k.Now()+time.Duration(stream.Intn(8))*time.Millisecond, stream.Bool(0.5))
			}
			k.Run(horizon)
			due := 0
			for _, st := range scheduled {
				if st.at <= horizon {
					due++
				}
			}
			if len(fired) != due {
				t.Fatalf("seed %d: Run(%v) left %d fired of %d due", seed, horizon, len(fired), due)
			}
			if due < len(scheduled) && k.Now() != horizon {
				t.Fatalf("seed %d: clock %v after Run(%v) with events pending", seed, k.Now(), horizon)
			}
		}
		runAll(k)
		if len(fired) != len(scheduled) {
			t.Fatalf("seed %d: fired %d of %d events", seed, len(fired), len(scheduled))
		}
		want := append([]stamp(nil), fired...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fired[%d] = %+v, want %+v (stable sort by at, seq)", seed, i, fired[i], want[i])
			}
		}
	}
}

// runAll executes events until the queue drains, with no horizon.
func runAll(k *Kernel) {
	const forever = time.Duration(1<<63 - 1)
	k.Run(forever)
}
