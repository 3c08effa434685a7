package service

import (
	"bytes"
	"context"
	"testing"
)

// TestDeltaRecordDeterministic: one broker state is one delta record,
// byte for byte. The record used to write Result.RejectReasons by ranging
// the map, so two deltas of the same state could differ; they are now in
// sorted reason order. Builds the record 64 times from one drained
// broker, re-basing the shadows each time so every build diffs the same
// pair of states.
func TestDeltaRecordDeterministic(t *testing.T) {
	s := newStack(t, 24, 2, 8, 5)
	b := startBroker(t, s.brokerOptions())
	base := b.shadows() // the empty run every build below diffs against
	chans := submitAll(t, b, s.tasks, 4)
	if _, err := b.Step(24); err != nil {
		t.Fatal(err)
	}
	for _, ch := range chans {
		<-ch
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Drained: the core goroutine is gone and the state is the test's.
	if n := len(b.Result().RejectReasons); n < 3 {
		t.Fatalf("workload produced %d reject reasons (%v), want >= 3 for the order to matter", n, b.Result().RejectReasons)
	}
	var want []byte
	for i := 0; i < 64; i++ {
		b.deltas.deltaShadows = base
		got := b.buildDelta()
		if want == nil {
			want = bytes.Clone(got)
		} else if !bytes.Equal(got, want) {
			t.Fatalf("build %d of the same state differs from build 0 (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}
