package timeslot

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNewHorizon(t *testing.T) {
	h := NewHorizon(144)
	if h.T != 144 {
		t.Fatalf("T = %d, want 144", h.T)
	}
	if h.SlotDuration != 10*time.Minute {
		t.Fatalf("SlotDuration = %v, want 10m", h.SlotDuration)
	}
}

func TestNewHorizonPanicsOnNonPositive(t *testing.T) {
	for _, bad := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHorizon(%d) did not panic", bad)
				}
			}()
			NewHorizon(bad)
		}()
	}
}

func TestDay(t *testing.T) {
	h := Day()
	if h.T != DefaultHorizonSlots {
		t.Fatalf("Day().T = %d, want %d", h.T, DefaultHorizonSlots)
	}
	if got := h.SlotHours() * float64(h.T); math.Abs(got-24) > 1e-9 {
		t.Fatalf("day horizon covers %v hours, want 24", got)
	}
}

func TestContainsAndClamp(t *testing.T) {
	h := NewHorizon(10)
	cases := []struct {
		t        int
		contains bool
		clamp    int
	}{
		{-1, false, 0},
		{0, true, 0},
		{5, true, 5},
		{9, true, 9},
		{10, false, 9},
		{100, false, 9},
	}
	for _, c := range cases {
		if got := h.Contains(c.t); got != c.contains {
			t.Errorf("Contains(%d) = %v, want %v", c.t, got, c.contains)
		}
		if got := h.Clamp(c.t); got != c.clamp {
			t.Errorf("Clamp(%d) = %d, want %d", c.t, got, c.clamp)
		}
	}
}

func TestSlotHoursDefault(t *testing.T) {
	h := Horizon{T: 10} // zero SlotDuration falls back to the default
	if got := h.SlotHours(); math.Abs(got-1.0/6.0) > 1e-12 {
		t.Fatalf("SlotHours = %v, want 1/6", got)
	}
}

func TestFractionOfDayPeriodic(t *testing.T) {
	h := Day()
	if f := h.FractionOfDay(0); f != 0 {
		t.Fatalf("FractionOfDay(0) = %v, want 0", f)
	}
	if f := h.FractionOfDay(72); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("FractionOfDay(72) = %v, want 0.5", f)
	}
	// Wraps for multi-day horizons.
	if f0, f1 := h.FractionOfDay(10), h.FractionOfDay(10+144); f0 != f1 {
		t.Fatalf("FractionOfDay not periodic: %v vs %v", f0, f1)
	}
}

func TestFractionOfDayAlwaysInUnitInterval(t *testing.T) {
	h := Day()
	f := func(t16 uint16) bool {
		f := h.FractionOfDay(int(t16))
		return f >= 0 && f < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowBasics(t *testing.T) {
	w := Window{Start: 3, End: 7}
	if w.Len() != 5 {
		t.Fatalf("Len = %d, want 5", w.Len())
	}
	if !w.Contains(3) || !w.Contains(7) || w.Contains(2) || w.Contains(8) {
		t.Fatal("Contains is wrong at the window edges")
	}
	if (Window{Start: 5, End: 4}).Len() != 0 {
		t.Fatal("empty window should have length 0")
	}
}

func TestWindowIntersect(t *testing.T) {
	a := Window{Start: 0, End: 10}
	b := Window{Start: 5, End: 20}
	got := a.Intersect(b)
	if got.Start != 5 || got.End != 10 {
		t.Fatalf("Intersect = %v, want [5,10]", got)
	}
	empty := a.Intersect(Window{Start: 11, End: 20})
	if empty.Len() != 0 {
		t.Fatalf("disjoint windows should intersect empty, got %v", empty)
	}
}

func TestWindowIntersectCommutative(t *testing.T) {
	f := func(a0, a1, b0, b1 int8) bool {
		a := Window{Start: int(a0), End: int(a1)}
		b := Window{Start: int(b0), End: int(b1)}
		x, y := a.Intersect(b), b.Intersect(a)
		return x.Len() == y.Len() && (x.Len() == 0 || x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowClipTo(t *testing.T) {
	h := NewHorizon(10)
	w := Window{Start: -5, End: 50}.ClipTo(h)
	if w.Start != 0 || w.End != 9 {
		t.Fatalf("ClipTo = %v, want [0,9]", w)
	}
}

func TestWindowString(t *testing.T) {
	if s := (Window{Start: 1, End: 3}).String(); s != "[1,3]" {
		t.Fatalf("String = %q", s)
	}
	if s := (Window{Start: 3, End: 1}).String(); s != "[empty]" {
		t.Fatalf("String = %q", s)
	}
}
