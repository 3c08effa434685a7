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
// degraded threshold, and validity against the shape it was drawn for.
func TestGenerateShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := Generate(seed, 4, 24)
		if err := p.Validate(4, 24); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
		if len(p.Outages) == 0 || len(p.Checkpoint) != 1 {
			t.Fatalf("seed %d: plan missing outages or its checkpoint window: %+v", seed, p)
		}
		for _, c := range p.Checkpoint {
			if c.To-c.From < 3 {
				t.Fatalf("seed %d: checkpoint window [%d,%d] too short to trip degraded mode", seed, c.From, c.To)
			}
		}
	}
}

// TestValidateClampsOutageTail mirrors the simulator's clamp: an outage
// whose To runs past the horizon is clamped to horizon-1 instead of
// rejected, while genuinely bad ranges still error.
func TestValidateClampsOutageTail(t *testing.T) {
	p := Plan{Outages: []Outage{{Node: 0, From: 20, To: 99}}}
	if err := p.Validate(2, 24); err != nil {
		t.Fatalf("tail past horizon should clamp, got %v", err)
	}
	if p.Outages[0].To != 23 {
		t.Fatalf("To = %d after clamp, want 23", p.Outages[0].To)
	}
	bad := []Plan{
		{Outages: []Outage{{Node: 5, From: 0, To: 1}}},
		{Outages: []Outage{{Node: 0, From: 24, To: 30}}},
		{Outages: []Outage{{Node: 0, From: 3, To: 1}}},
		{Checkpoint: []CheckpointFault{{From: 4, To: 3}}},
	}
	for i, b := range bad {
		if err := b.Validate(2, 24); err == nil {
			t.Fatalf("bad plan %d validated: %+v", i, b)
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
