package sim

import (
	"errors"
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New()
	var order []int
	k.At(30*time.Millisecond, func() { order = append(order, 3) })
	k.At(10*time.Millisecond, func() { order = append(order, 1) })
	k.At(20*time.Millisecond, func() { order = append(order, 2) })
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
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
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
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
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
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
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
	if second != 15*time.Millisecond {
		t.Fatalf("After fired at %v, want 15ms", second)
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e := k.At(time.Second, func() { fired = true })
	e.Cancel()
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	k := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1s and 2s only", fired)
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("clock = %v after horizon run", k.Now())
	}
	// Resuming must execute the remaining event.
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("resume did not run remaining events: %v", fired)
	}
}

func TestStop(t *testing.T) {
	k := New()
	count := 0
	k.At(time.Second, func() { count++; k.Stop() })
	k.At(2*time.Second, func() { count++ })
	err := runAll(k)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
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
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
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
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
}

func TestPending(t *testing.T) {
	k := New()
	k.At(time.Second, func() {})
	k.At(2*time.Second, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d", k.Pending())
	}
	if err := runAll(k); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending after run = %d", k.Pending())
	}
}

// runAll executes events until the queue drains, with no horizon.
func runAll(k *Kernel) error {
	const forever = time.Duration(1<<63 - 1)
	return k.Run(forever)
}
