package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
)

// Supervisor runs an Auctioneer — a monolithic broker or a sharded
// fleet, it never branches on the shape — under an in-process watchdog
// and implements the Auctioneer surface itself, so everything above it
// (the HTTP facade, the load generator, the fleet explorer) serves
// through restarts without knowing they happened.
//
// Two failure signals trigger a restart: a generation's broker stopping
// without the supervisor asking (any shard's Done closing — the
// in-process analogue of a crash), and a wedge (the liveness probe on
// slot progress not answering within WedgeTimeout — a core goroutine
// stuck in a stalled write). Either way the old generation is put down
// (best effort: a truly wedged goroutine completes its pending Kill
// whenever the stall clears; it is also marked superseded, so once it
// un-wedges it refuses every journal and checkpoint write — and since
// each generation's journal is created on a fresh inode via tmp +
// rename, even an in-flight write from the zombie lands on its own
// orphaned file, never on the successor's), and Build constructs the
// next one — resuming it from the checkpoint chain and each broker's
// write-ahead journal, which is what turns "restart" into "no acked bid
// is lost".
//
// API calls that land during the swap wait for the next generation
// (bounded by RestartWait) and retry on ErrClosed, so a submitter
// racing a crash sees latency, not an error. This is in-process
// supervision: it cannot survive the process itself dying — that is
// the checkpoint + journal's job, exercised by `pdftspd -supervise`
// restarting on entry — but it turns every recoverable in-process
// death into a bounded blip.
type SupervisorOptions struct {
	// Build constructs (Open), resumes (Resume: checkpoint chains, then
	// journals), and starts a fresh generation. It runs once at Start
	// and once per restart. Required. A Build failure stops the
	// supervisor (its error surfaces on every subsequent call): the
	// state on disk needs an operator, not a retry loop.
	Build func() (Auctioneer, error)
	// ProbeInterval is the liveness-probe cadence (default 250ms; < 0
	// disables wedge detection). WedgeTimeout is how long a probe may go
	// unanswered before the generation is declared wedged (default 2s).
	ProbeInterval time.Duration
	WedgeTimeout  time.Duration
	// RestartWait bounds how long API calls wait for the next
	// generation mid-swap (default 10s).
	RestartWait time.Duration
	// PreRestore runs after the dead generation is down and before
	// Build — the fleet explorer tears journals here to exercise
	// replay's degraded paths. OnRestart is notified once the new
	// generation is serving.
	PreRestore func(gen int, reason string)
	OnRestart  func(gen int, reason string)
}

func (o SupervisorOptions) withDefaults() SupervisorOptions {
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.WedgeTimeout <= 0 {
		o.WedgeTimeout = 2 * time.Second
	}
	if o.RestartWait <= 0 {
		o.RestartWait = 10 * time.Second
	}
	return o
}

// Supervisor is the watchdog; see SupervisorOptions.
type Supervisor struct {
	opts SupervisorOptions

	mu       sync.Mutex
	cur      Auctioneer // nil mid-swap and before Start
	gen      int
	restarts int
	stopping bool
	failErr  error         // sticky: the Build failure that stopped it
	swapped  chan struct{} // closed (and replaced) on every generation change

	stopOnce sync.Once
	done     chan struct{}
}

// NewSupervisor builds a supervisor; Start builds and watches the first
// generation.
func NewSupervisor(opts SupervisorOptions) (*Supervisor, error) {
	if opts.Build == nil {
		return nil, fmt.Errorf("service: supervisor needs a Build function")
	}
	return &Supervisor{
		opts:    opts.withDefaults(),
		gen:     -1,
		swapped: make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}

// Start builds generation 0 and begins watching it.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	if s.gen >= 0 || s.stopping {
		s.mu.Unlock()
		return ErrStarted
	}
	s.mu.Unlock()
	a, err := s.opts.Build()
	if err != nil {
		s.fail(fmt.Errorf("service: supervisor build: %w", err))
		return err
	}
	s.swap(0, a)
	go s.watch(0, a)
	return nil
}

// Done is closed when the supervisor has stopped for good (Drain, Kill,
// or a Build failure).
func (s *Supervisor) Done() <-chan struct{} { return s.done }

// Supervision is what a Supervisor adds to its generation's Status and
// /v1/status body: the serving generation (0 = the first) and how many
// generations it has rebuilt after a crash or a wedge.
type Supervision struct {
	Generation int `json:"generation"`
	Restarts   int `json:"restarts"`
}

// supervision reads the generation and the restart count together.
func (s *Supervisor) supervision() *Supervision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Supervision{Generation: s.gen, Restarts: s.restarts}
}

// swap installs a new generation and wakes every waiter.
func (s *Supervisor) swap(gen int, a Auctioneer) {
	s.mu.Lock()
	s.gen = gen
	s.cur = a
	close(s.swapped)
	s.swapped = make(chan struct{})
	s.mu.Unlock()
}

// fail stops the supervisor with a sticky error.
func (s *Supervisor) fail(err error) {
	s.mu.Lock()
	s.stopping = true
	if s.failErr == nil {
		s.failErr = err
	}
	close(s.swapped)
	s.swapped = make(chan struct{})
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.done) })
}

// watch is one generation's watchdog: it restarts on an unexpected
// broker stop or a wedged liveness probe, and exits when the
// supervisor stops or the generation is superseded.
func (s *Supervisor) watch(gen int, a Auctioneer) {
	brokers := a.Brokers()
	died := make(chan struct{}, len(brokers))
	for _, br := range brokers {
		go func(br *Broker) {
			select {
			case <-br.Done():
				died <- struct{}{}
			case <-s.done:
			}
		}(br)
	}
	var tick <-chan time.Time
	if s.opts.ProbeInterval > 0 {
		t := time.NewTicker(s.opts.ProbeInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-died:
			s.restart(gen, a, "broker stopped unexpectedly")
			return
		case <-s.done:
			return
		case <-tick:
			if !s.probe(a) {
				s.restart(gen, a, fmt.Sprintf("wedged: liveness probe unanswered for %v", s.opts.WedgeTimeout))
				return
			}
		}
	}
}

// probe asks the generation for slot progress with a deadline; a
// stopped broker answers immediately (its state reads race-free), so
// only a stuck core goroutine fails this.
func (s *Supervisor) probe(a Auctioneer) bool {
	answered := make(chan struct{})
	go func() {
		a.Slot()
		close(answered)
	}()
	select {
	case <-answered:
		return true
	case <-time.After(s.opts.WedgeTimeout):
		return false
	}
}

// restart replaces a dead or wedged generation. Only the current
// generation's watcher gets to restart; stale watchers and
// supervisor-initiated stops bow out.
func (s *Supervisor) restart(gen int, old Auctioneer, reason string) {
	s.mu.Lock()
	if s.stopping || gen != s.gen {
		s.mu.Unlock()
		return
	}
	s.cur = nil // calls now wait for the next generation
	s.mu.Unlock()
	// Put the remains down. A wedged core goroutine cannot be forced;
	// the pending Kill completes whenever its stall clears. Supersede
	// first: from here the old generation refuses every journal and
	// checkpoint write, so even if it un-wedges mid-rebuild it cannot
	// scribble on (or rename over) the files its successor is about to
	// own.
	for _, br := range old.Brokers() {
		br.Supersede()
	}
	killed := make(chan struct{})
	go func() {
		old.Kill()
		close(killed)
	}()
	select {
	case <-killed:
	case <-time.After(s.opts.WedgeTimeout):
	}
	if f := s.opts.PreRestore; f != nil {
		f(gen, reason)
	}
	a, err := s.opts.Build()
	if err != nil {
		s.fail(fmt.Errorf("service: supervisor rebuild after %q: %w", reason, err))
		return
	}
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		a.Kill()
		return
	}
	s.restarts++
	s.mu.Unlock()
	s.swap(gen+1, a)
	if f := s.opts.OnRestart; f != nil {
		f(gen+1, reason)
	}
	go s.watch(gen+1, a)
}

// acquire returns the serving generation, waiting out a swap in
// progress (bounded by RestartWait).
func (s *Supervisor) acquire() (Auctioneer, int, error) {
	deadline := time.NewTimer(s.opts.RestartWait)
	defer deadline.Stop()
	s.mu.Lock()
	for {
		if s.stopping {
			err := s.failErr
			s.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return nil, 0, err
		}
		if s.cur != nil {
			a, gen := s.cur, s.gen
			s.mu.Unlock()
			return a, gen, nil
		}
		ch := s.swapped
		s.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return nil, 0, fmt.Errorf("%w: supervisor restart did not complete in %v", ErrClosed, s.opts.RestartWait)
		}
		s.mu.Lock()
	}
}

// awaitSwap blocks until generation gen is superseded (or the
// supervisor stops / RestartWait elapses).
func (s *Supervisor) awaitSwap(gen int) {
	deadline := time.NewTimer(s.opts.RestartWait)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		if s.stopping || s.gen != gen {
			s.mu.Unlock()
			return
		}
		ch := s.swapped
		s.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return
		}
	}
}

// supervisorRetries bounds how many generation swaps one API call will
// chase before giving up.
const supervisorRetries = 3

// withGen runs f against the serving generation, retrying across a
// restart when the generation died under the call.
func (s *Supervisor) withGen(f func(a Auctioneer) error) error {
	for tries := 0; ; tries++ {
		a, gen, err := s.acquire()
		if err != nil {
			return err
		}
		err = f(a)
		if !diedUnder(err) || tries >= supervisorRetries {
			return err
		}
		s.awaitSwap(gen)
	}
}

// inGen is withGen for the calls that return one value beside the error.
func inGen[T any](s *Supervisor, f func(a Auctioneer) (T, error)) (v T, err error) {
	err = s.withGen(func(a Auctioneer) error {
		v, err = f(a)
		return err
	})
	return v, err
}

// diedUnder reports whether err says the generation was killed, drained or
// superseded under the call that got it, so the successor should be asked.
func diedUnder(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, ErrDraining)
}

// Submit serves one bid through the current generation: a SubmitBatch of
// one, so a restart under it is retried and resolved the same way.
func (s *Supervisor) Submit(ctx context.Context, t task.Task) (schedule.Decision, error) {
	return submitOne(ctx, s, t)
}

// resubmitter is a fleet that must route a retried batch by where its
// bids already live (Shards): the successor generation's journal may have
// replayed one onto a shard its resumed quotes no longer pick.
type resubmitter interface {
	resubmitBatch(ctx context.Context, tasks []task.Task) ([]Outcome, error)
	resubmitBatchAck(ctx context.Context, tasks []task.Task, verdicts []error) (int, error)
}

// SubmitBatch mirrors Broker.SubmitBatch across restarts: the batch is
// re-submitted when the call fails with the generation's death, and also
// when the call returns but a held bid was answered with it (Kill and
// Drain refuse held bids one by one). The journal makes the retry
// idempotent on the broker side. A retry refused with ErrDuplicateID for a
// bid the new generation replayed from the journal (re-held, or already
// decided before the crash) is not a conflict — the original submission
// succeeded — so it maps to the bid's real outcome instead of surfacing a
// 409. The last attempt's word stands: its outcomes — a held bid's
// ErrDraining when the supervisor itself is draining — or its failure.
func (s *Supervisor) SubmitBatch(ctx context.Context, tasks []task.Task) ([]Outcome, error) {
	var outs []Outcome
	attempts := 0
	err := s.withGen(func(a Auctioneer) error {
		attempts++
		submit := a.SubmitBatch
		if r, ok := a.(resubmitter); ok && attempts > 1 {
			submit = r.resubmitBatch
		}
		var err error
		if outs, err = submit(ctx, tasks); err != nil {
			outs = nil
			return err
		}
		for i := range outs {
			if diedUnder(outs[i].Err) {
				return outs[i].Err
			}
		}
		return nil
	})
	if outs == nil {
		return nil, err
	}
	if attempts > 1 {
		// ErrPastSlot too: a bid of the batch decided before its sibling's
		// generation died is behind the successor's clock.
		for i := range outs {
			if e := outs[i].Err; tasks[i].ID >= 0 && (errors.Is(e, ErrDuplicateID) || errors.Is(e, ErrPastSlot)) {
				outs[i] = s.resolveReplayed(ctx, tasks[i].ID, outs[i])
			}
		}
	}
	return outs, nil
}

// SubmitBatchAck mirrors Broker.SubmitBatchAck across restarts, retrying
// like SubmitBatch (a verdict carries the generation's death when it is
// superseded between holding a bid and journaling it). On a retried batch,
// a duplicate-ID verdict for a bid the journal replayed flips to accepted
// — the bid is safe (held or decided), exactly what the ack promises.
func (s *Supervisor) SubmitBatchAck(ctx context.Context, tasks []task.Task, verdicts []error) (int, error) {
	held, acked := 0, false
	attempts := 0
	err := s.withGen(func(a Auctioneer) error {
		attempts++
		submit := a.SubmitBatchAck
		if r, ok := a.(resubmitter); ok && attempts > 1 {
			submit = r.resubmitBatchAck
		}
		var err error
		held, err = submit(ctx, tasks, verdicts)
		if acked = err == nil; !acked {
			return err
		}
		for _, v := range verdicts {
			if diedUnder(v) {
				return v
			}
		}
		return nil
	})
	if !acked {
		return 0, err
	}
	if attempts > 1 {
		for i, v := range verdicts {
			if v == nil || !errors.Is(v, ErrDuplicateID) || tasks[i].ID < 0 {
				continue
			}
			// Held first, decided second: a bid only moves that way, so one
			// whose round runs between the two queries is not missed.
			id := tasks[i].ID
			if pending, perr := s.PendingFor(id); perr == nil && pending {
				verdicts[i] = nil
				held++
				continue
			}
			if _, ok, derr := s.DecisionFor(id); derr == nil && ok {
				verdicts[i] = nil
				held++
			}
		}
	}
	return held, nil
}

// resolveReplayed maps one retried bid's refusal onto its real outcome
// when the journal replayed it: a held bid's round is waited out (in
// whichever generation serves by then — the queries go through the
// supervisor, so further restarts are chased), honoring ctx. A bid only
// moves from held to decided, hence the query order; one that is neither
// is a genuine duplicate and keeps the original refusal.
func (s *Supervisor) resolveReplayed(ctx context.Context, id int, orig Outcome) Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		pending, err := s.PendingFor(id)
		if err != nil {
			return Outcome{Err: err}
		}
		if !pending {
			d, ok, err := s.DecisionFor(id)
			if err == nil && !ok {
				return orig
			}
			return Outcome{Decision: d, Err: err}
		}
		select {
		case <-ctx.Done():
			return Outcome{Err: ctx.Err()}
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Resume is not the supervisor's to do: Build resumes each generation
// before starting it, and the serving one answers ErrStarted.
func (s *Supervisor) Resume() (Resumed, error) { return inGen(s, Auctioneer.Resume) }

// Step closes n slots on the current generation.
func (s *Supervisor) Step(n int) (int, error) {
	return inGen(s, func(a Auctioneer) (int, error) { return a.Step(n) })
}

// Slot reports the current (bid-accepting) slot.
func (s *Supervisor) Slot() (int, error) { return inGen(s, Auctioneer.Slot) }

// DecisionFor finds a decided bid in the current generation (restored
// decisions included — the checkpoint chain carries them across
// restarts).
func (s *Supervisor) DecisionFor(id int) (schedule.Decision, bool, error) {
	var (
		d  schedule.Decision
		ok bool
	)
	err := s.withGen(func(a Auctioneer) error {
		var err error
		d, ok, err = a.DecisionFor(id)
		return err
	})
	return d, ok, err
}

// PendingFor reports a bid held in the current generation.
func (s *Supervisor) PendingFor(id int) (bool, error) {
	return inGen(s, func(a Auctioneer) (bool, error) { return a.PendingFor(id) })
}

// Status reports the current generation's status, with the supervisor's
// generation and restart count.
func (s *Supervisor) Status() (Status, error) {
	st, err := inGen(s, Auctioneer.Status)
	st.Supervisor = s.supervision()
	return st, err
}

// Health reports the current generation's health; a supervisor that has
// given up (a Build failure) reports degraded with the sticky reason,
// and a swap in progress reports degraded-but-restarting.
func (s *Supervisor) Health() Health {
	s.mu.Lock()
	stopping, failErr, cur := s.stopping, s.failErr, s.cur
	s.mu.Unlock()
	if stopping && failErr != nil {
		return Health{Status: "degraded", Reason: failErr.Error()}
	}
	if cur == nil && !stopping {
		return Health{Status: "degraded", Reason: "supervisor restarting"}
	}
	if cur == nil {
		return Health{Status: "degraded", Reason: ErrClosed.Error()}
	}
	return cur.Health()
}

// Brokers exposes the current generation's fleet members (the fleet
// explorer kills these to exercise the watchdog).
func (s *Supervisor) Brokers() []*Broker {
	a, _, err := s.acquire()
	if err != nil {
		return nil
	}
	return a.Brokers()
}

// Handler serves the /v1 HTTP API through the supervisor, so requests
// in flight during a restart retry against the next generation.
func (s *Supervisor) Handler() http.Handler { return apiHandler(s) }

// Drain stops the supervisor and drains the serving generation (final
// checkpoint, journal rotation, RunEnd).
func (s *Supervisor) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return nil
	}
	s.stopping = true
	a := s.cur
	close(s.swapped)
	s.swapped = make(chan struct{})
	s.mu.Unlock()
	var err error
	if a != nil {
		err = a.Drain(ctx)
	}
	s.stopOnce.Do(func() { close(s.done) })
	return err
}

// Kill crash-stops the supervisor and the serving generation.
func (s *Supervisor) Kill() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.stopping = true
	a := s.cur
	close(s.swapped)
	s.swapped = make(chan struct{})
	s.mu.Unlock()
	if a != nil {
		a.Kill()
	}
	s.stopOnce.Do(func() { close(s.done) })
}

// retryAfter delegates to the serving generation (all generations share
// a clock mode).
func (s *Supervisor) retryAfter() string {
	a, _, err := s.acquire()
	if err != nil {
		return "1"
	}
	return a.retryAfter()
}

// statusPayload serves the generation's own payload (a fleet's
// ShardsStatus, a broker's Status) on /v1/status, with the supervisor's
// generation and restart count.
func (s *Supervisor) statusPayload() (any, error) {
	p, err := inGen(s, Auctioneer.statusPayload)
	switch st := p.(type) {
	case Status:
		st.Supervisor = s.supervision()
		return st, err
	case ShardsStatus:
		st.Supervisor = s.supervision()
		return st, err
	}
	return p, err
}
