package faults

import (
	"reflect"
	"testing"
)

// TestGenerateDeterministic pins the property every chaos run relies on:
// the same (seed, shape) yields byte-identical plans, and different
// seeds yield different ones.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, 4, 24)
	b := Generate(7, 4, 24)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	c := Generate(8, 4, 24)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 7 and 8 drew identical plans")
	}
}

// TestGenerateShape checks the structural guarantees Generate documents:
// at least one outage, a checkpoint window long enough to trip the
// degraded threshold, and validity against the shape it was drawn for
// (an outage may outlive the horizon; the simulator clamps its tail).
func TestGenerateShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := Generate(seed, 4, 24)
		for _, o := range p.Outages {
			if o.Node < 0 || o.Node >= 4 || o.From < 0 || o.To < o.From || o.From >= 24 {
				t.Fatalf("seed %d: generated outage %+v outside 4 nodes × 24 slots", seed, o)
			}
		}
		if len(p.Outages) == 0 || len(p.Checkpoint) != 1 {
			t.Fatalf("seed %d: plan missing outages or its checkpoint window: %+v", seed, p)
		}
		for _, c := range p.Checkpoint {
			if c.From < 0 || c.To >= 24 || c.To-c.From < 3 {
				t.Fatalf("seed %d: checkpoint window [%d,%d] outside the horizon or too short to trip degraded mode", seed, c.From, c.To)
			}
		}
	}
}

// TestCheckpointFaultAt checks window membership is inclusive on both
// ends.
func TestCheckpointFaultAt(t *testing.T) {
	p := Plan{Checkpoint: []CheckpointFault{{From: 3, To: 6}}}
	for slot, want := range map[int]bool{2: false, 3: true, 6: true, 7: false} {
		if got := p.CheckpointFaultAt(slot); got != want {
			t.Fatalf("CheckpointFaultAt(%d) = %v, want %v", slot, got, want)
		}
	}
}
