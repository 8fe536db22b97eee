package main

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime sends three operations due at the same
// instant through one "connection" that serves one at a time for 20ms. An
// open loop does not wait for replies, and each latency counts from the due
// time, so the queueing the stall causes shows: about 20, 40 and 60 ms.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	var conn sync.Mutex
	done := make([]time.Time, 3)
	dues := make([]time.Time, 3)
	_, lag := openLoop(context.Background(), []time.Duration{0, 0, 0}, func(i int, due time.Time) {
		conn.Lock()
		defer conn.Unlock()
		time.Sleep(service)
		dues[i], done[i] = due, time.Now()
	})
	var lat []time.Duration
	for i := range done {
		lat = append(lat, done[i].Sub(dues[i]))
		if lag[i] > 10*time.Millisecond {
			t.Errorf("operation %d dispatched %v late; an open loop must not wait for replies", i, lag[i])
		}
	}
	slices.Sort(lat)
	for k, l := range lat {
		if want := time.Duration(k+1) * service; l < want {
			t.Errorf("latency %d = %v, want at least %v (timed from the due time)", k, l, want)
		}
	}
}

func TestScheduleIsSeededAndConditionedOnCounts(t *testing.T) {
	warm := warmJobs()
	a, b := schedule(7, 2, warm), schedule(7, 2, warm)
	if len(a) != int(2*(hitRate+missRate)) {
		t.Fatalf("%d arrivals, want %d", len(a), int(2*(hitRate+missRate)))
	}
	seeds := map[uint64]bool{}
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
		if a[i].at < 0 || a[i].at >= 2*time.Second || (i > 0 && a[i].at < a[i-1].at) {
			t.Fatalf("arrival %d at %v: outside the window or out of order", i, a[i].at)
		}
		if a[i].hit {
			hits++
			continue
		}
		if seeds[a[i].job.seed] {
			t.Fatalf("write seed %d repeats", a[i].job.seed)
		}
		seeds[a[i].job.seed] = true
	}
	if hits != int(2*hitRate) {
		t.Errorf("%d reads, want %d", hits, int(2*hitRate))
	}
	if c := schedule(8, 2, warm); c[0] == a[0] && c[1] == a[1] {
		t.Errorf("different seeds gave the same schedule")
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm("# TYPE zeiotd_cache_hits counter\nzeiotd_cache_hits 12\nzeiotd_x{i=\"0\"} 1\nzeiotd_x{i=\"1\"} 2\n")
	if m["zeiotd_cache_hits"] != 12 || m["zeiotd_x"] != 3 {
		t.Errorf("parseProm = %v", m)
	}
}
