package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"

	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/zones"
)

// Sharded-intake errors.
var (
	// ErrShardNeedsID: sharded intake requires explicit task IDs — each
	// shard assigns its own next-free IDs, so letting two shards stamp
	// bids would mint duplicates across the fleet (HTTP 400).
	ErrShardNeedsID = errors.New("service: sharded intake requires an explicit non-negative task id")
	// ErrUnroutable: no shard serves the bid's model, or a lone broker
	// serves another one (HTTP 400).
	ErrUnroutable = errors.New("service: no shard serves this model")
)

// Shards runs one Broker per cluster shard behind a dual-price router:
// each incoming bid is placed on the shard offering the best
// price-adjusted surplus, computed from the shards' published dual
// prices only (zones.Quote) — no cross-shard locking, the paper's
// shadow-prices-as-coordination pattern. Duals only move at slot close,
// so each shard's quote is republished after Step and read lock-free
// (atomic.Pointer) by any number of submitting goroutines.
//
// Every shard remains bit-identical to a sequential sim.Run of the
// subsequence routed to it: within a shard, bids still close in
// (arrival, ID) order through the shard's single core goroutine.
type Shards struct {
	// manifestPath, when non-empty, is where Start writes the manifest
	// tying the per-shard checkpoints together (Resume checks it).
	manifestPath string
	brokers      []*Broker
	keys         []string
	byModel      zones.ModelIndex
	virtual      bool
	slots        int

	base   []*zones.Quote
	quotes []atomic.Pointer[zones.Quote]

	placed     []atomic.Int64
	unroutable atomic.Int64
	started    bool
}

// newShards builds the router over one broker per Options, as given (Open
// derives the per-shard paths and labels); shard i's key is
// "<model>/<i>". All shards must share the same horizon length and clock
// mode; models may differ per shard (a zone per model) or repeat (replica
// shards of one model), and each must be in lora's catalog (New refuses
// one that is not), since the router places bids by catalog code.
func newShards(manifestPath string, opts []Options) (*Shards, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("service: no shards")
	}
	s := &Shards{
		manifestPath: manifestPath,
		brokers:      make([]*Broker, 0, len(opts)),
		keys:         make([]string, 0, len(opts)),
		base:         make([]*zones.Quote, 0, len(opts)),
		quotes:       make([]atomic.Pointer[zones.Quote], len(opts)),
		placed:       make([]atomic.Int64, len(opts)),
	}
	for i, o := range opts {
		b, err := New(o)
		if err != nil {
			return nil, fmt.Errorf("service: shard %d: %w", i, err)
		}
		if i == 0 {
			s.virtual = o.VirtualClock
			s.slots = b.horizon.T
		} else {
			if o.VirtualClock != s.virtual {
				return nil, fmt.Errorf("service: shard %d clock mode differs from shard 0", i)
			}
			if b.horizon.T != s.slots {
				return nil, fmt.Errorf("service: shard %d horizon %d, shard 0 has %d", i, b.horizon.T, s.slots)
			}
		}
		key := fmt.Sprintf("%s/%d", o.Model.Name, i)
		s.brokers = append(s.brokers, b)
		s.keys = append(s.keys, key)
		s.byModel.Add(b.model, i)
		s.base = append(s.base, zones.NewQuote(o.Model, o.Cluster))
	}
	return s, nil
}

// Start starts every shard and publishes the initial quotes (from the
// schedulers' pre-start dual state — calibrated or checkpoint-restored),
// then writes the shard manifest if configured.
func (s *Shards) Start() error {
	if s.started {
		return ErrStarted
	}
	// Snapshot duals before the core goroutines take ownership.
	initial := make([]core.DualState, len(s.brokers))
	for i, b := range s.brokers {
		if dc, ok := b.sched.(DualCheckpointer); ok {
			initial[i] = dc.SnapshotDuals()
		}
	}
	for i, b := range s.brokers {
		if err := b.Start(); err != nil {
			return fmt.Errorf("service: shard %s: %w", s.keys[i], err)
		}
	}
	for i := range s.brokers {
		s.quotes[i].Store(s.base[i].WithDuals(initial[i]))
	}
	s.started = true
	if s.manifestPath != "" {
		return s.writeManifest()
	}
	return nil
}

// loadQuotes reads the current published quote of every shard into buf.
func (s *Shards) loadQuotes(buf []*zones.Quote) []*zones.Quote {
	buf = buf[:0]
	for i := range s.quotes {
		buf = append(buf, s.quotes[i].Load())
	}
	return buf
}

// place picks the destination shard for t under the given quotes, or -1
// when no shard serves its model.
func (s *Shards) place(t *task.Task, quotes []*zones.Quote) int {
	return zones.Place(t, quotes, s.byModel.Serving(t.ModelName))
}

// refreshQuotes republishes every shard's quote from its current duals;
// called after slot closes (Step) — the only time duals move.
func (s *Shards) refreshQuotes() {
	for i, b := range s.brokers {
		if ds, ok := b.Duals(); ok {
			s.quotes[i].Store(s.base[i].WithDuals(ds))
		}
	}
}

// shardBatch is one shard's slice of a routed batch.
type shardBatch struct {
	tasks []task.Task
	idx   []int
}

// routeBatch partitions tasks across shards by the published quotes,
// writing refusal outcomes for unroutable or ID-less bids via refuse.
func (s *Shards) routeBatch(tasks []task.Task, refuse func(i int, err error)) []shardBatch {
	quotes := s.loadQuotes(make([]*zones.Quote, 0, len(s.brokers)))
	groups := make([]shardBatch, len(s.brokers))
	for i := range tasks {
		if tasks[i].ID < 0 {
			refuse(i, ErrShardNeedsID)
			continue
		}
		si := s.place(&tasks[i], quotes)
		if si < 0 {
			s.unroutable.Add(1)
			refuse(i, ErrUnroutable)
			continue
		}
		groups[si].tasks = append(groups[si].tasks, tasks[i])
		groups[si].idx = append(groups[si].idx, i)
	}
	return groups
}

// SubmitBatch routes a batch across shards, fans the per-shard slices
// out concurrently, and merges the outcomes positionally — the sharded
// counterpart of Broker.SubmitBatch. Routing refusals (no model, no
// explicit ID) ride in the bid's Outcome.Err; a whole-batch error means
// some shard shut down or ctx expired mid-flight.
func (s *Shards) SubmitBatch(ctx context.Context, tasks []task.Task) ([]Outcome, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	outs := make([]Outcome, len(tasks))
	groups := s.routeBatch(tasks, func(i int, err error) { outs[i] = Outcome{Err: err} })
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		batchErr error
	)
	for si := range groups {
		if len(groups[si].tasks) == 0 {
			continue
		}
		s.placed[si].Add(int64(len(groups[si].tasks)))
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			res, err := s.brokers[si].SubmitBatch(ctx, groups[si].tasks)
			if err != nil {
				errMu.Lock()
				if batchErr == nil {
					batchErr = fmt.Errorf("shard %s: %w", s.keys[si], err)
				}
				errMu.Unlock()
				return
			}
			for j := range res {
				outs[groups[si].idx[j]] = res[j]
			}
		}(si)
	}
	wg.Wait()
	if batchErr != nil {
		return nil, batchErr
	}
	return outs, nil
}

// SubmitBatchAck is the fire-and-forget form: it returns once every
// shard has recorded its intake verdicts. verdicts must have len(tasks)
// entries; a shard-level refusal (e.g. a full intake channel) is written
// into each of that shard's positions rather than failing the batch —
// the other shards' bids stay held. Stamped arrivals are copied back
// into tasks. Returns the number of bids held across all shards.
func (s *Shards) SubmitBatchAck(ctx context.Context, tasks []task.Task, verdicts []error) (int, error) {
	if len(tasks) == 0 {
		return 0, nil
	}
	if len(verdicts) != len(tasks) {
		return 0, fmt.Errorf("service: verdicts len %d, want %d", len(verdicts), len(tasks))
	}
	groups := s.routeBatch(tasks, func(i int, err error) { verdicts[i] = err })
	var wg sync.WaitGroup
	held := make([]int, len(groups))
	shardVerdicts := make([][]error, len(groups))
	for si := range groups {
		if len(groups[si].tasks) == 0 {
			continue
		}
		s.placed[si].Add(int64(len(groups[si].tasks)))
		shardVerdicts[si] = make([]error, len(groups[si].tasks))
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			n, err := s.brokers[si].SubmitBatchAck(ctx, groups[si].tasks, shardVerdicts[si])
			if err != nil {
				for j := range shardVerdicts[si] {
					shardVerdicts[si][j] = fmt.Errorf("shard %s: %w", s.keys[si], err)
				}
				return
			}
			held[si] = n
		}(si)
	}
	wg.Wait()
	total := 0
	for si := range groups {
		total += held[si]
		for j, i := range groups[si].idx {
			verdicts[i] = shardVerdicts[si][j]
			tasks[i] = groups[si].tasks[j] // stamped arrival
		}
	}
	return total, nil
}

// Step closes n slots on every shard (concurrently — each shard's round
// is its own core goroutine) and republishes the quotes from the
// post-round duals, so the next slot's bids route against fresh prices.
// All shards step together; the returned slot is the common clock.
func (s *Shards) Step(n int) (int, error) {
	if !s.virtual {
		return 0, ErrRealClock
	}
	slots := make([]int, len(s.brokers))
	errs := make([]error, len(s.brokers))
	var wg sync.WaitGroup
	for i := range s.brokers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slots[i], errs[i] = s.brokers[i].Step(n)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("shard %s: %w", s.keys[i], err)
		}
		if slots[i] != slots[0] {
			return 0, fmt.Errorf("service: shard clocks diverged: %s at %d, %s at %d",
				s.keys[0], slots[0], s.keys[i], slots[i])
		}
	}
	s.refreshQuotes()
	return slots[0], nil
}

// DecisionFor finds a decided bid across the fleet — same signature as
// Broker.DecisionFor, so the Auctioneer surface is shape-blind. Callers
// that need to know which shard decided a bid iterate Brokers().
func (s *Shards) DecisionFor(id int) (schedule.Decision, bool, error) {
	for _, b := range s.brokers {
		d, ok, err := b.DecisionFor(id)
		if err != nil {
			return schedule.Decision{}, false, err
		}
		if ok {
			return d, true, nil
		}
	}
	return schedule.Decision{}, false, nil
}

// PendingFor reports whether any shard holds the bid awaiting its round.
func (s *Shards) PendingFor(id int) (bool, error) {
	for _, b := range s.brokers {
		ok, err := b.PendingFor(id)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Brokers returns the fleet members in shard order.
func (s *Shards) Brokers() []*Broker { return append([]*Broker(nil), s.brokers...) }

// retryAfter mirrors Broker.retryAfter; all shards share a clock mode
// and slot duration, so shard 0 speaks for the fleet.
func (s *Shards) retryAfter() string { return s.brokers[0].retryAfter() }

// statusPayload serves the aggregated FleetStatus — per-shard detail
// included — on /v1/status.
func (s *Shards) statusPayload() (any, error) { return s.FleetStatus() }

// ShardsStatus aggregates the fleet's operational state; PerShard keeps
// each broker's full Status under its key.
type ShardsStatus struct {
	Shards      int     `json:"shards"`
	Slot        int     `json:"slot"`
	Slots       int     `json:"horizon_slots"`
	VirtualTime bool    `json:"virtual_clock"`
	Held        int     `json:"held_bids"`
	Decided     int     `json:"decided"`
	Admitted    int     `json:"admitted"`
	Rejected    int     `json:"rejected"`
	Canceled    int     `json:"canceled"`
	Welfare     float64 `json:"welfare"`
	Revenue     float64 `json:"revenue"`
	Unroutable  int64   `json:"unroutable"`
	// Placed counts bids routed to each shard, keyed like PerShard.
	Placed   map[string]int64  `json:"placed"`
	PerShard map[string]Status `json:"per_shard"`
}

// FleetStatus aggregates every shard's Status, keeping the per-shard
// detail (the pre-Auctioneer Shards.Status).
func (s *Shards) FleetStatus() (ShardsStatus, error) {
	st := ShardsStatus{
		Shards:      len(s.brokers),
		Slots:       s.slots,
		VirtualTime: s.virtual,
		Unroutable:  s.unroutable.Load(),
		Placed:      make(map[string]int64, len(s.brokers)),
		PerShard:    make(map[string]Status, len(s.brokers)),
	}
	for i, b := range s.brokers {
		bs, err := b.Status()
		if err != nil {
			return st, fmt.Errorf("shard %s: %w", s.keys[i], err)
		}
		if i == 0 {
			st.Slot = bs.Slot
		}
		st.Held += bs.Held
		st.Decided += bs.Decided
		st.Admitted += bs.Admitted
		st.Rejected += bs.Rejected
		st.Canceled += bs.Canceled
		st.Welfare += bs.Welfare
		st.Revenue += bs.Revenue
		st.Placed[s.keys[i]] = s.placed[i].Load()
		st.PerShard[s.keys[i]] = bs
	}
	return st, nil
}

// Status aggregates the fleet into the Auctioneer's shape-blind Status:
// counts, welfare, revenue, shed tallies and journal gauges sum across
// shards; high-water marks and dual prices take the fleet
// maximum; clock fields come from shard 0 (all shards share a clock).
// Degradation is sticky: the first degraded shard's reason surfaces.
// Per-shard detail remains available from FleetStatus.
func (s *Shards) Status() (Status, error) {
	var agg Status
	for i, b := range s.brokers {
		bs, err := b.Status()
		if err != nil {
			return agg, fmt.Errorf("shard %s: %w", s.keys[i], err)
		}
		if i == 0 {
			agg = bs
			agg.Run = bs.Run + "/fleet"
			continue
		}
		agg.Held += bs.Held
		agg.QueueCap += bs.QueueCap
		agg.IntakeDepth += bs.IntakeDepth
		agg.IntakeCap += bs.IntakeCap
		agg.ShedChannelFull += bs.ShedChannelFull
		agg.ShedHeldFull += bs.ShedHeldFull
		agg.Decided += bs.Decided
		agg.DecisionBytes += bs.DecisionBytes
		agg.Admitted += bs.Admitted
		agg.Rejected += bs.Rejected
		agg.Canceled += bs.Canceled
		agg.Welfare += bs.Welfare
		agg.Revenue += bs.Revenue
		agg.WALRecords += bs.WALRecords
		agg.WALDepth += bs.WALDepth
		agg.WALBytes += bs.WALBytes
		agg.WALFsyncs += bs.WALFsyncs
		agg.WALFsyncNanos += bs.WALFsyncNanos
		agg.WALReplayed += bs.WALReplayed
		agg.WALDeduped += bs.WALDeduped
		agg.WALStale += bs.WALStale
		agg.WALFailures += bs.WALFailures
		if bs.WALFsyncMaxNS > agg.WALFsyncMaxNS {
			agg.WALFsyncMaxNS = bs.WALFsyncMaxNS
		}
		if agg.WALError == "" && bs.WALError != "" {
			agg.WALError = fmt.Sprintf("shard %s: %s", s.keys[i], bs.WALError)
		}
		if bs.IntakeHighWater > agg.IntakeHighWater {
			agg.IntakeHighWater = bs.IntakeHighWater
		}
		if bs.HeldHighWater > agg.HeldHighWater {
			agg.HeldHighWater = bs.HeldHighWater
		}
		if bs.MaxLambda > agg.MaxLambda {
			agg.MaxLambda = bs.MaxLambda
		}
		if bs.MaxPhi > agg.MaxPhi {
			agg.MaxPhi = bs.MaxPhi
		}
		if bs.Utilization > agg.Utilization {
			agg.Utilization = bs.Utilization
		}
		if bs.CheckpointFailures > agg.CheckpointFailures {
			agg.CheckpointFailures = bs.CheckpointFailures
		}
		if bs.SlotsSinceCheckpoint > agg.SlotsSinceCheckpoint {
			agg.SlotsSinceCheckpoint = bs.SlotsSinceCheckpoint
		}
		if !agg.Degraded && bs.Degraded {
			agg.Degraded = true
			agg.DegradedReason = fmt.Sprintf("shard %s: %s", s.keys[i], bs.DegradedReason)
		}
	}
	return agg, nil
}

// Health aggregates shard health: degraded if any shard is, with the
// shard key in the reason.
func (s *Shards) Health() Health {
	for i, b := range s.brokers {
		if h := b.Health(); h.Status != "ok" {
			return Health{Status: h.Status, Reason: fmt.Sprintf("shard %s: %s", s.keys[i], h.Reason)}
		}
	}
	return Health{Status: "ok"}
}

// Drain drains every shard concurrently (each writes its final
// checkpoint) and returns the first error.
func (s *Shards) Drain(ctx context.Context) error {
	errs := make([]error, len(s.brokers))
	var wg sync.WaitGroup
	for i := range s.brokers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.brokers[i].Drain(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %s: %w", s.keys[i], err)
		}
	}
	return nil
}

// Kill crash-stops every shard (no final checkpoints).
func (s *Shards) Kill() {
	var wg sync.WaitGroup
	for i := range s.brokers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.brokers[i].Kill()
		}(i)
	}
	wg.Wait()
}

// shardManifestVersion guards manifest compatibility.
const shardManifestVersion = 1

// shardManifest records the shape of the fleet that owns a set of
// per-shard checkpoints: restoring them into a different fleet would
// silently fork it, so Resume refuses a manifest that disagrees.
type shardManifest struct {
	Version int      `json:"version"`
	Shards  int      `json:"shards"`
	Slots   int      `json:"horizon_slots"`
	Keys    []string `json:"keys"`
	// Paths are the per-shard checkpoint paths, indexed like Keys.
	Paths []string `json:"paths"`
}

// refuseJSON refuses a JSON file where a snapshot belongs: a fleet's
// manifest, said to be one, or a snapshot of v3 or before, with
// ErrFormatVersion (it shares only its version key with a manifest).
func refuseJSON(data []byte) error {
	var m shardManifest
	if json.Unmarshal(data, &m) == nil && m.Keys != nil {
		return fmt.Errorf("a fleet manifest for %d shards, not one broker's snapshot", m.Shards)
	}
	return fmt.Errorf("%w: checkpoint version %d (JSON), want %d", ErrFormatVersion, m.Version, checkpointVersion)
}

// writeManifest durably replaces this fleet's manifest.
func (s *Shards) writeManifest() error {
	m := shardManifest{
		Version: shardManifestVersion,
		Shards:  len(s.brokers),
		Slots:   s.slots,
		Keys:    s.keys,
		Paths:   make([]string, len(s.brokers)),
	}
	for i, b := range s.brokers {
		m.Paths[i] = b.opts.CheckpointPath
	}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("service: marshal shard manifest: %w", err)
	}
	return writeFile(osFS{}, s.manifestPath, data)
}

// checkManifest refuses a manifest on disk whose shape diverges from this
// fleet. No manifest is no objection: Start writes it before the first
// checkpoint wave, so its presence says nothing about what else exists.
func (s *Shards) checkManifest() error {
	data, err := os.ReadFile(s.manifestPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: read shard manifest: %w", err)
	}
	var m shardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("service: parse shard manifest %s: %w", s.manifestPath, err)
	}
	if m.Version != shardManifestVersion {
		return fmt.Errorf("service: shard manifest version %d, want %d", m.Version, shardManifestVersion)
	}
	if m.Shards != len(s.brokers) || m.Slots != s.slots || len(m.Keys) != len(s.keys) {
		return fmt.Errorf("service: manifest has %d shards × %d slots, fleet is %d × %d",
			m.Shards, m.Slots, len(s.brokers), s.slots)
	}
	for i, key := range s.keys {
		if m.Keys[i] != key {
			return fmt.Errorf("service: manifest shard %d is %q, fleet has %q", i, m.Keys[i], key)
		}
	}
	return nil
}

// Resume loads the fleet's checkpoint chains and journals (see resume)
// after checking the manifest, if one is on disk.
func (s *Shards) Resume() (Resumed, error) {
	if s.manifestPath != "" {
		if err := s.checkManifest(); err != nil {
			return Resumed{}, err
		}
	}
	return resume(s.brokers)
}
