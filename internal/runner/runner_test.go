package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestParallelismResolution(t *testing.T) {
	if got := Parallelism(4); got != 4 {
		t.Fatalf("Parallelism(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Parallelism(0); got != want {
		t.Fatalf("Parallelism(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Parallelism(-3); got != want {
		t.Fatalf("Parallelism(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestMapOrdersResultsByJob(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Map(context.Background(), workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	got, err := Map[int](context.Background(), 8, 0, func(int) (int, error) { t.Fatal("fn called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("n=0: got %v, %v", got, err)
	}
	got, err = Map(context.Background(), 8, 1, func(i int) (int, error) { return 41 + i, nil })
	if err != nil || len(got) != 1 || got[0] != 41 {
		t.Fatalf("n=1: got %v, %v", got, err)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	sentinel := errors.New("job 3 failed")
	_, err := Map(context.Background(), 4, 20, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, sentinel
		case 11:
			return 0, fmt.Errorf("job 11 failed")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// Job 3 may have been skipped if job 11 failed first and cancelled
	// the pool — but whichever errors were recorded, the lowest-indexed
	// one is returned, and both candidates identify a real failure.
	if err != sentinel && err.Error() != "job 11 failed" {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestMapSequentialErrorStopsImmediately(t *testing.T) {
	var calls atomic.Int64
	_, err := Map(context.Background(), 1, 10, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || calls.Load() != 3 {
		t.Fatalf("err=%v calls=%d, want error after 3 calls", err, calls.Load())
	}
}

func TestMapConcurrencyBounded(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), workers, 40, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > workers {
		t.Fatalf("observed %d concurrent jobs, cap %d", peak.Load(), workers)
	}
}
