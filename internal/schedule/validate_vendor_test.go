package schedule

import (
	"strings"
	"testing"
)

// prepPlan builds a valid plan for a prep task using its first quote.
func prepPlan(env *TaskEnv) *Schedule {
	q := env.Quotes[0]
	return &Schedule{
		TaskID: env.Task.ID, Vendor: q.Vendor,
		VendorPrice: q.Price, VendorDelay: q.DelaySlots,
		Placements: []Placement{
			{Node: 0, Slot: int(env.Task.Arrival) + q.DelaySlots},
			{Node: 0, Slot: int(env.Task.Arrival) + q.DelaySlots + 1},
		},
	}
}

// TestValidateVendorQuoteConsistency covers the quote-consistency checks:
// a plan's vendor index must exist among the task's quotes and its
// price/delay terms must match the quoted {q_in, h_in} — a scheduler that
// under-reports either would silently corrupt the welfare accounting.
func TestValidateVendorQuoteConsistency(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Schedule)
		want string
	}{
		{"negative vendor index", func(s *Schedule) { s.Vendor = -2 }, "invalid vendor index"},
		{"vendor not quoted", func(s *Schedule) { s.Vendor = 99 }, "not among"},
		{"price mismatch", func(s *Schedule) { s.VendorPrice += 1 }, "price"},
		{"delay mismatch", func(s *Schedule) { s.VendorDelay++ }, "delay"},
	}
	for _, c := range cases {
		env := testEnv(t, true)
		s := prepPlan(env)
		if err := s.Validate(env); err != nil {
			t.Fatalf("%s: setup plan invalid: %v", c.name, err)
		}
		c.mut(s)
		err := s.Validate(env)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateSkipsQuoteCheckWithoutQuotes keeps Validate usable for
// replay/offline contexts where the environment carries no marketplace:
// vendor terms are then taken at face value.
func TestValidateSkipsQuoteCheckWithoutQuotes(t *testing.T) {
	env := testEnv(t, true)
	s := prepPlan(env)
	env.Quotes = nil
	s.VendorPrice += 100 // inconsistent, but unverifiable without quotes
	if err := s.Validate(env); err != nil {
		t.Fatalf("plan rejected without quotes to check against: %v", err)
	}
}
