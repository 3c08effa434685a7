package decision_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
)

// full is a decision with every field, and every field of its plan and
// terms, non-zero; each call builds a fresh one.
func full() schedule.Decision {
	return schedule.Decision{
		TaskID: 7,
		Schedule: &schedule.Schedule{
			TaskID: 7, Vendor: 2, VendorPrice: 1.5, VendorDelay: 1,
			Placements: []schedule.Placement{{Node: 1, Slot: 3}, {Node: 2, Slot: 4}},
		},
		Terms:        &schedule.Terms{Payment: 3, VendorCost: 1, EnergyCost: 0.5},
		F:            2.25,
		Reason:       schedule.ReasonCapacity,
		Admitted:     true,
		DualsUpdated: true,
	}
}

// variant changes one field of a full decision, and says whether the field
// lies in the plan.
type variant struct {
	name   string
	inPlan bool
	change func(*schedule.Decision)
}

// variants walks schedule.Decision by reflection, into its Schedule (and
// the Schedule's Placement) and its Terms, and returns one variant per
// field: a changed number or flag, a nil pointer, a longer slice. A field
// of a kind it cannot change fails the test, so a field added later is
// covered or noticed, never skipped.
func variants(t *testing.T) []variant {
	var out []variant
	plan := reflect.TypeOf(schedule.Schedule{})
	var walk func(name string, typ reflect.Type, inPlan bool, get func(*schedule.Decision) reflect.Value)
	walk = func(name string, typ reflect.Type, inPlan bool, get func(*schedule.Decision) reflect.Value) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			path := name + "." + f.Name
			field := func(d *schedule.Decision) reflect.Value { return get(d).Field(i) }
			add := func(suffix string, inPlan bool, change func(reflect.Value)) {
				out = append(out, variant{path + suffix, inPlan, func(d *schedule.Decision) { change(field(d)) }})
			}
			switch f.Type.Kind() {
			case reflect.Pointer:
				in := inPlan || f.Type.Elem() == plan
				add("=nil", in, func(v reflect.Value) { v.SetZero() })
				walk(path, f.Type.Elem(), in, func(d *schedule.Decision) reflect.Value { return field(d).Elem() })
			case reflect.Slice:
				add("+1", inPlan, func(v reflect.Value) { v.Set(reflect.Append(v, v.Index(0))) })
				walk(path+"[0]", f.Type.Elem(), inPlan, func(d *schedule.Decision) reflect.Value { return field(d).Index(0) })
			case reflect.Int:
				add("+1", inPlan, func(v reflect.Value) { v.SetInt(v.Int() + 1) })
			case reflect.Float64:
				add("+0.5", inPlan, func(v reflect.Value) { v.SetFloat(v.Float() + 0.5) })
			case reflect.Bool:
				add("!", inPlan, func(v reflect.Value) { v.SetBool(!v.Bool()) })
			case reflect.Uint8: // RejectReason: another code of the set
				add("'", inPlan, func(v reflect.Value) { v.SetUint(v.Uint()%uint64(schedule.ReasonSurplus) + 1) })
			default:
				t.Fatalf("%s: no way to change a %s", path, f.Type)
			}
		}
	}
	walk("Decision", reflect.TypeOf(schedule.Decision{}), false,
		func(d *schedule.Decision) reflect.Value { return reflect.ValueOf(d).Elem() })
	return out
}

// roundTrip files d under id in a one-record list and reads it back. The
// record read alone (Read) must give the same decision, and the store
// must know the record's length (EncodedLen).
func roundTrip(t *testing.T, id int, d *schedule.Decision) schedule.Decision {
	t.Helper()
	rec := decision.Append(nil, id, d)
	s, err := readStore(append(rec, decision.End))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(id)
	if !ok || s.Len() != 1 {
		t.Fatalf("%d records read back, %d not among them", s.Len(), id)
	}
	if n := s.EncodedLen(); n != len(rec) {
		t.Fatalf("EncodedLen %d, the record is %d bytes", n, len(rec))
	}
	r := &decision.Reader{B: rec}
	if rid, one := decision.Read(r); r.Err != nil || len(r.B) != 0 || rid != id || !reflect.DeepEqual(one, got) {
		t.Fatalf("Read: id %d, %+v, %d bytes left (err %v); the store reads id %d, %+v", rid, one, len(r.B), r.Err, id, got)
	}
	return got
}

// TestRecordCoversEveryField: no field of a decision, its plan or its
// terms can be left out of the record. A decision that differs from
// another in one field alone encodes to different bytes, reads back as
// itself, and fails the twin gate (sim.DiffDecisions) with plans
// compared; with plans cleared, so does every field outside the plan.
func TestRecordCoversEveryField(t *testing.T) {
	base := full()
	want := decision.Append(nil, 7, &base)
	if got := roundTrip(t, 7, &base); !reflect.DeepEqual(got, base) {
		t.Fatalf("the full decision reads back as %+v", got)
	}
	vs := variants(t)
	if len(vs) < 16 {
		t.Fatalf("the walk found %d fields; Decision, Schedule, Placement and Terms hold more", len(vs))
	}
	for _, v := range vs {
		d := full()
		v.change(&d)
		if bytes.Equal(decision.Append(nil, 7, &d), want) {
			t.Errorf("%s: encodes to the full decision's bytes", v.name)
		}
		if got := roundTrip(t, 7, &d); !reflect.DeepEqual(got, d) {
			t.Errorf("%s: reads back as %+v (plan %+v, terms %+v), want %+v (plan %+v, terms %+v)",
				v.name, got, got.Schedule, got.Terms, d, d.Schedule, d.Terms)
		}
		if sim.DiffDecisions(&d, &base, true) == "" {
			t.Errorf("%s: the twin gate with plans passes", v.name)
		}
		if msg := sim.DiffDecisions(&d, &base, false); (msg == "") != v.inPlan {
			t.Errorf("%s: the twin gate without plans says %q", v.name, msg)
		}
	}
}

// readStore decodes a whole decided set: one list and nothing after it,
// each ID once, so that AppendFrom(nil, 0) and End give back exactly b.
func readStore(b []byte) (*decision.Store, error) {
	s, r := new(decision.Store), &decision.Reader{B: b}
	n, err := s.ReadList(r)
	switch {
	case err != nil:
		return nil, err
	case len(r.B) != 0:
		return nil, fmt.Errorf("decision: %d bytes after the list's end", len(r.B))
	case n != s.Len():
		return nil, fmt.Errorf("decision: %d records for %d bids: an ID is filed twice", n, s.Len())
	}
	return s, nil
}

// TestReadStoreRefusesOtherEncodings: a record is refused unless it is the
// one encoding Append gives its decision, and a list unless it is closed
// by End, ends there and files each ID once. So a list that decodes
// re-encodes to its own bytes.
func TestReadStoreRefusesOtherEncodings(t *testing.T) {
	rejected := schedule.Decision{TaskID: 5, F: -1, Reason: schedule.ReasonSurplus}
	rec := decision.Append(nil, 5, &rejected)
	list := func(parts ...[]byte) []byte { return append(bytes.Join(parts, nil), decision.End) }
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"unclosed", "truncated byte", rec},
		{"trailing bytes", "after the list's end", append(list(rec), 0)},
		{"an ID twice", "filed twice", list(rec, rec)},
		{"a padded varint", "truncated uvarint", list([]byte{rec[0], 0x8a, 0x00}, rec[2:])},
		{"an unknown flag", "unknown flags", list([]byte{rec[0] | 0x40}, rec[1:])},
		{"its own id as task id", "own id", list([]byte{rec[0] | 1<<2}, rec[1:], decision.AppendInt(nil, 5))},
		{"zero money", "all zero", list([]byte{rec[0] | 1<<3}, rec[1:], make([]byte, 24))},
		{"an unknown reason", "reject reason", list(rec[:len(rec)-1], []byte{200})},
	} {
		if _, err := readStore(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %x decodes with err %v, want %q", tc.name, tc.b, err, tc.want)
		}
	}
	if s, err := readStore(list(rec)); err != nil || s.Len() != 1 {
		t.Fatalf("the well-formed list: %v", err)
	}
}
