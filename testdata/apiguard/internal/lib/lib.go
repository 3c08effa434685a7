// Package lib plants what the guard must refuse next to live code of the
// same shape.
package lib

// Live.Run is called on a concrete *Live, so it reaches only itself.
type Live struct{}

func (l *Live) Run() int { return used() }

// String completes fmt.Stringer, which fmt calls.
func (l *Live) String() string { return "live" }

// Dead.Run is named like Live.Run, and nothing reaches it.
type Dead struct{}

func (d *Dead) Run() int { return 0 }

func used() int { return 1 }

// onlyTested is reached only from lib_test.go.
func onlyTested() int { return 2 }

// Counter's total is written and read; hits is only written.
type Counter struct {
	total int
	hits  int
}

func (c *Counter) Add(n int) int {
	c.total += n
	c.hits++
	return c.total
}

// Config's field is read only through fmt: a value passed as an
// interface counts as read whole.
type Config struct {
	Name string
}

// limit is declared and never used.
const limit = 3
