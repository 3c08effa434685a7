package service

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
)

// TestDeltaRecordDeterministic: one broker state is one delta record,
// byte for byte. The record used to write Result.RejectReasons by ranging
// the map, so two deltas of the same state could differ; they are now in
// sorted reason order. Builds the record 64 times from one drained
// broker, re-basing the shadows each time on nothing, as a full
// snapshot's record is, so every build diffs the same pair of states.
func TestDeltaRecordDeterministic(t *testing.T) {
	s := newStack(t, 24, 2, 8, 5)
	b := startBroker(t, s.brokerOptions())
	ackAll(t, b, s.tasks, 4)
	if _, err := b.Step(24); err != nil {
		t.Fatal(err)
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
		got, _ := appendRecord(nil, b.snapshot(), &deltaShadows{}, b.saved)
		if want == nil {
			want = bytes.Clone(got)
		} else if !bytes.Equal(got, want) {
			t.Fatalf("build %d of the same state differs from build 0 (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// fullCheckpoint builds a small checkpoint in which every field, and every
// field of its duals, ledger and accounting, holds something other than
// its zero value — all but the accounting's two sim.Run outputs, which a
// broker leaves nil, and the ledger's down, leased and elastic marks,
// which its fixed capacity never has — so a change to any one of them can
// show.
func fullCheckpoint() *Checkpoint {
	const K, T = 2, 3
	n := 0
	next := func() int { n++; return n }
	ints := func() [][]int { return [][]int{{next(), next(), next()}, {next(), next(), next()}} }
	floats := func() [][]float64 {
		return [][]float64{{float64(next()) / 4, float64(next()) / 4, float64(next()) / 4}, {float64(next()) / 4, 0.5, 0.75}}
	}
	res := sim.NewResult("pdFTSP")
	rv := reflect.ValueOf(res).Elem()
	for i := range rv.NumField() {
		switch f := rv.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(next()))
		case reflect.Float64:
			f.SetFloat(float64(next()) / 8)
		}
	}
	res.RejectReasons[schedule.ReasonSurplus], res.RejectReasons[schedule.ReasonCapacity] = next(), next()
	s := new(decision.Store)
	for id := range 3 {
		d := schedule.Decision{TaskID: id, F: -1, Reason: schedule.ReasonSurplus}
		if err := s.Put(id, &d); err != nil {
			panic(err)
		}
	}
	return &Checkpoint{
		Version: checkpointVersion, RunLabel: "every-field", Scheduler: "pdFTSP",
		Slot: next(), NextID: next(), Nodes: K, Slots: T,
		Duals:  &core.DualState{Lambda: floats(), Phi: floats()},
		Ledger: cluster.Snapshot{UsedWork: ints(), UsedMem: floats(), TasksOn: ints()},
		Result: res, Decisions: s, Canceled: next(), ProcIdx: next(),
	}
}

// perturb changes v in place to another value of its type: a plane or
// list at its last element, a struct at its first field.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		perturb(t, v.Index(v.Len()-1))
	case reflect.Map:
		k := v.MapKeys()[0]
		v.SetMapIndex(k, reflect.ValueOf(int(v.MapIndex(k).Int()+1)))
	case reflect.Pointer:
		perturb(t, v.Elem())
	case reflect.Struct:
		perturb(t, v.Field(0))
	default:
		t.Fatalf("cannot perturb a %s", v.Type())
	}
}

// grow adds a node to every plane of ck, or a slot to every row, so its
// shape changes as a whole: the planes are allocated from Nodes × Slots on
// read, and one of them alone cannot change.
func grow(ck *Checkpoint, node bool) {
	for _, v := range []reflect.Value{reflect.ValueOf(&ck.Ledger).Elem(), reflect.ValueOf(ck.Duals).Elem()} {
		for i := range v.NumField() {
			switch f := v.Field(i); {
			case f.IsNil(): // the marks a checkpoint carries none of
			case node:
				f.Set(reflect.Append(f, f.Index(0)))
			default:
				for k := range f.Len() {
					f.Index(k).Set(reflect.Append(f.Index(k), f.Index(k).Index(0)))
				}
			}
		}
	}
	if node {
		ck.Nodes++
	} else {
		ck.Slots++
	}
}

// TestSnapshotCoversEveryField: the snapshot's record is a hand list of
// fields (resultScalars and the rest of appendRecord), the class of code
// that let Decision.F go unchecked until the decision codec was tested
// the same way. Every field of Checkpoint, cluster.Snapshot,
// core.DualState and sim.Result is changed on its own, and each optional
// part dropped on its own: the checkpoint must encode to other bytes and
// read back exactly; Nodes and Slots change with the planes' shape, a
// changed Version is refused instead, and so are the ledger's Down, Leased
// and Elastic marks, which a served broker's fixed capacity never sets and
// the file has no place for: WriteCheckpoint refuses a checkpoint with
// them. The exceptions are Result.OfferLatency and Result.Decisions,
// sim.Run outputs a serving broker holds nil, and Result.Scheduler, which
// is the broker's Scheduler and goes to disk once, as that.
func TestSnapshotCoversEveryField(t *testing.T) {
	s := newStack(t, 8, 2, 4, 5)
	b := startBroker(t, s.brokerOptions())
	ackAll(t, b, s.tasks, 2)
	if _, err := b.Step(8); err != nil {
		t.Fatal(err)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ck := b.snapshot(); ck.Result.Admitted == 0 || ck.Result.OfferLatency != nil ||
		ck.Result.Decisions != nil || ck.Result.Scheduler != ck.Scheduler {
		t.Fatalf("a serving broker's accounting: %d admitted, latencies %v, %d decisions, scheduler %q (broker %q)",
			ck.Result.Admitted, ck.Result.OfferLatency, len(ck.Result.Decisions), ck.Result.Scheduler, ck.Scheduler)
	}

	base, _ := encodeSnapshot(fullCheckpoint())
	if ck, err := readSnapshot(base); err != nil || !sameCheckpoint(ck, fullCheckpoint()) {
		t.Fatalf("the full checkpoint does not read back (err %v)", err)
	}
	check := func(t *testing.T, ck *Checkpoint) {
		data, _ := encodeSnapshot(ck)
		if bytes.Equal(data, base) {
			t.Fatal("encodes to the same bytes")
		}
		got, err := readSnapshot(data)
		switch {
		case ck.Version != checkpointVersion:
			if !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("another version reads back with err %v", err)
			}
		case err != nil:
			t.Fatal(err)
		case !sameCheckpoint(got, ck):
			t.Fatalf("reads back as\n%+v\nwant\n%+v", got, ck)
		}
	}

	for _, part := range []struct {
		name string
		of   func(*Checkpoint) reflect.Value
	}{
		{"Checkpoint", func(ck *Checkpoint) reflect.Value { return reflect.ValueOf(ck).Elem() }},
		{"Snapshot", func(ck *Checkpoint) reflect.Value { return reflect.ValueOf(&ck.Ledger).Elem() }},
		{"DualState", func(ck *Checkpoint) reflect.Value { return reflect.ValueOf(ck.Duals).Elem() }},
		{"Result", func(ck *Checkpoint) reflect.Value { return reflect.ValueOf(ck.Result).Elem() }},
	} {
		typ := part.of(fullCheckpoint()).Type()
		for i := range typ.NumField() {
			name := part.name + "." + typ.Field(i).Name
			switch name {
			case "Result.OfferLatency", "Result.Decisions", "Result.Scheduler",
				"Checkpoint.Duals", "Checkpoint.Ledger", "Checkpoint.Result": // walked field by field
				continue
			}
			t.Run(name, func(t *testing.T) {
				ck := fullCheckpoint()
				switch name {
				case "Checkpoint.Decisions":
					d := schedule.Decision{TaskID: 9, Admitted: true, F: 1}
					if err := ck.Decisions.Put(9, &d); err != nil {
						t.Fatal(err)
					}
				case "Checkpoint.Nodes", "Checkpoint.Slots":
					grow(ck, name == "Checkpoint.Nodes")
				default:
					perturb(t, part.of(ck).Field(i))
					ck.Result.Scheduler = ck.Scheduler
				}
				check(t, ck)
			})
		}
	}
	for name, drop := range map[string]func(*Checkpoint){
		"no-duals":     func(ck *Checkpoint) { ck.Duals = nil },
		"no-reasons":   func(ck *Checkpoint) { clear(ck.Result.RejectReasons) },
		"no-decisions": func(ck *Checkpoint) { ck.Decisions = new(decision.Store) },
	} {
		t.Run(name, func(t *testing.T) {
			ck := fullCheckpoint()
			drop(ck)
			check(t, ck)
		})
	}
}

// sameCheckpoint compares two checkpoints field for field, their decided
// sets by their records.
func sameCheckpoint(a, b *Checkpoint) bool {
	if !bytes.Equal(a.Decisions.AppendFrom(nil, 0), b.Decisions.AppendFrom(nil, 0)) {
		return false
	}
	a2, b2 := *a, *b
	a2.Decisions, b2.Decisions = nil, nil
	return reflect.DeepEqual(a2, b2)
}

// TestWriteCheckpointShape: WriteCheckpoint refuses, and writes nothing
// for, a checkpoint whose planes are not Nodes × Slots. The record keys a
// cell by its row's own length, so such a file once read back with its
// cells moved and no error; changing Slots alone was enough.
func TestWriteCheckpointShape(t *testing.T) {
	dir := t.TempDir()
	ok := filepath.Join(dir, "ok")
	if err := WriteCheckpoint(ok, fullCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if ck, _, err := readCheckpoint(ok); err != nil || !sameCheckpoint(ck, fullCheckpoint()) {
		t.Fatalf("a consistent checkpoint does not round-trip (err %v)", err)
	}
	for name, bend := range map[string]func(*Checkpoint){
		"slots":        func(ck *Checkpoint) { ck.Slots++ },
		"nodes":        func(ck *Checkpoint) { ck.Nodes-- },
		"a short row":  func(ck *Checkpoint) { ck.Ledger.UsedMem[1] = ck.Ledger.UsedMem[1][:2] },
		"a nil plane":  func(ck *Checkpoint) { ck.Ledger.TasksOn = nil },
		"a dual plane": func(ck *Checkpoint) { ck.Duals.Phi = ck.Duals.Phi[:1] },
	} {
		ck, path := fullCheckpoint(), filepath.Join(dir, name)
		bend(ck)
		if err := WriteCheckpoint(path, ck); err == nil {
			t.Errorf("%s: a checkpoint of %d × %d it cannot carry is written", name, ck.Nodes, ck.Slots)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: the refused write left a file (stat err %v)", name, err)
		}
	}
}
