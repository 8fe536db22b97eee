package zeiot

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"zeiot/internal/obs"
)

// record is a task body that feeds every Recorder shape, several calls per
// task, so a reordered replay shows in the series and the last gauge.
func record(rec obs.Recorder, i int) {
	for j := range 3 {
		rec.Observe("points", float64(10*i+j))
	}
	rec.Add("count", int64(i+1))
	rec.Gauge("last", float64(i))
	rec.Observe(fmt.Sprintf("task%d", i%2), float64(i))
}

// TestFanOutReplaysInIndexOrder makes every even task wait until the task
// after it has returned, so tasks finish out of index order, and requires
// the registry fed through the fan-out to equal one fed by a serial loop.
func TestFanOutReplaysInIndexOrder(t *testing.T) {
	const n = 9
	want := obs.NewRegistry()
	for i := range n {
		record(want, i)
	}
	got := obs.NewRegistry()
	h := &harness{ctx: context.Background(), cfg: &RunConfig{TrainWorkers: 4, Recorder: got}}
	var done [n + 1]chan struct{}
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	err := h.fanOut(n, func(i, _ int, rec obs.Recorder) error {
		defer close(done[i])
		if i%2 == 0 {
			<-done[i+1]
		}
		record(rec, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Errorf("fan-out registry\n%+v\nwant the serial one\n%+v", got.Snapshot(), want.Snapshot())
	}
}

// TestFanOutWorkers checks the lane and worker split, min(workers, n)
// lanes with max(1, workers/lanes) training workers per task, and that
// without a recorder every task gets a nil rec.
func TestFanOutWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, n, want int }{
		{1, 6, 1}, {2, 6, 1}, {4, 2, 2}, {5, 2, 2}, {4, 1, 4}, {3, 17, 1},
	} {
		h := &harness{ctx: context.Background(), cfg: &RunConfig{TrainWorkers: tc.workers}}
		err := h.fanOut(tc.n, func(i, workers int, rec obs.Recorder) error {
			if workers != tc.want {
				return fmt.Errorf("task %d got %d workers, want %d", i, workers, tc.want)
			}
			if rec != nil {
				return fmt.Errorf("task %d got recorder %T, want nil", i, rec)
			}
			return nil
		})
		if err != nil {
			t.Errorf("TrainWorkers %d over %d tasks: %v", tc.workers, tc.n, err)
		}
	}
}

// TestFanOutLowestIndexErrorWins lets task 5 fail before task 2 does and
// requires task 2's error.
func TestFanOutLowestIndexErrorWins(t *testing.T) {
	h := &harness{ctx: context.Background(), cfg: &RunConfig{TrainWorkers: 4}}
	failed5 := make(chan struct{})
	err2, err5 := errors.New("task 2"), errors.New("task 5")
	err := h.fanOut(8, func(i, _ int, _ obs.Recorder) error {
		switch i {
		case 2:
			<-failed5
			return err2
		case 5:
			close(failed5)
			return err5
		}
		return nil
	})
	if !errors.Is(err, err2) {
		t.Errorf("fanOut returned %v, want %v", err, err2)
	}
}

// TestFanOutStopsOnCancel checks that no task starts once the context is
// cancelled and that fanOut then returns the context's error: on one lane
// a task cancelling the context is the last to run, and a context
// cancelled beforehand runs nothing.
func TestFanOutStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := &harness{ctx: ctx, cfg: &RunConfig{TrainWorkers: 1, Recorder: obs.NewRegistry()}}
	var ran []int
	err := h.fanOut(6, func(i, _ int, _ obs.Recorder) error {
		ran = append(ran, i)
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("fanOut returned %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 1, 2}) {
		t.Errorf("tasks %v ran, want [0 1 2]", ran)
	}

	h = &harness{ctx: ctx, cfg: &RunConfig{TrainWorkers: 4}}
	var started atomic.Int64
	err = h.fanOut(8, func(int, int, obs.Recorder) error {
		started.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("fanOut under a cancelled context returned %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Errorf("%d tasks started under a cancelled context", n)
	}
}
