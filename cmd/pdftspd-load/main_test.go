package main

import (
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
)

// TestPercentilesNearestRank pins the nearest-rank definition: p-q is
// the ceil(q·n)-th smallest sample. The old floor-indexed lookup
// reported the 9th of 10 samples as p99, hiding the true tail.
func TestPercentilesNearestRank(t *testing.T) {
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration(i+1) * time.Millisecond
	}
	p50, p90, p99, max := percentilesMs(ten)
	if p50 != 5 || p90 != 9 || p99 != 10 || max != 10 {
		t.Fatalf("n=10: got p50=%v p90=%v p99=%v max=%v, want 5 9 10 10", p50, p90, p99, max)
	}
	if p99 != max {
		t.Fatalf("n=10: p99 (%v) must be the max (%v)", p99, max)
	}

	one := []time.Duration{7 * time.Millisecond}
	p50, p90, p99, max = percentilesMs(one)
	if p50 != 7 || p90 != 7 || p99 != 7 || max != 7 {
		t.Fatalf("n=1: got p50=%v p90=%v p99=%v max=%v, want all 7", p50, p90, p99, max)
	}

	four := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	p50, p90, p99, _ = percentilesMs(four)
	if p50 != 2 || p90 != 4 || p99 != 4 {
		t.Fatalf("n=4: got p50=%v p90=%v p99=%v, want 2 4 4", p50, p90, p99)
	}

	p50, p90, p99, max = percentilesMs(nil)
	if p50 != 0 || p90 != 0 || p99 != 0 || max != 0 {
		t.Fatalf("empty: got p50=%v p90=%v p99=%v max=%v, want zeros", p50, p90, p99, max)
	}
}

// TestRetryDelay pins the 429 backoff contract: millisecond-scale
// jittered delays, whatever the broker advertises in Retry-After.
func TestRetryDelay(t *testing.T) {
	for attempt := 0; attempt < 8; attempt++ {
		capped := attempt
		if capped > 4 {
			capped = 4
		}
		base := 4 * time.Millisecond << uint(capped)
		lo, hi := base/2, base/2+base
		for trial := 0; trial < 50; trial++ {
			if d := retryDelay(attempt); d < lo || d >= hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, lo, hi)
			}
		}
	}
	// A whole retry cycle must stay far under the broker's 1s
	// Retry-After — that sleep was the bug.
	if d := retryDelay(0); d >= 100*time.Millisecond {
		t.Fatalf("delay %v not millisecond-scale", d)
	}
}

// TestRepeatKeepsArrivalIDOrder pins what -repeat emits: every copy of
// the workload, re-IDed densely, in the (arrival, ID) order the submit
// loop and the sim.Run twin both rely on.
func TestRepeatKeepsArrivalIDOrder(t *testing.T) {
	f := flags{stack: config.Default(), repeat: 1}
	f.stack.Slots, f.stack.Seed = 12, 3
	base, err := loadTasks(f)
	if err != nil {
		t.Fatal(err)
	}
	f.repeat = 3
	got, err := loadTasks(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*len(base) {
		t.Fatalf("%d tasks, want %d", len(got), 3*len(base))
	}
	seen := make([]bool, len(got))
	for i := range got {
		if i > 0 && (got[i].Arrival < got[i-1].Arrival ||
			got[i].Arrival == got[i-1].Arrival && got[i].ID <= got[i-1].ID) {
			t.Fatalf("task %d (slot %d) follows task %d (slot %d)", got[i].ID, got[i].Arrival, got[i-1].ID, got[i-1].Arrival)
		}
		want := base[got[i].ID%len(base)]
		want.ID = got[i].ID
		if got[i] != want || seen[got[i].ID] {
			t.Fatalf("task %d is not a fresh copy of base task %d", got[i].ID, got[i].ID%len(base))
		}
		seen[got[i].ID] = true
	}
}
