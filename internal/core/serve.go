package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Serving-tier sentinel errors.
var (
	// ErrQueueFull is Submit's backpressure signal: the tenant's admission
	// queue is at its budget. Callers shed or retry; Submit never blocks.
	ErrQueueFull = errors.New("core: admission queue full")
	// ErrUnknownTenant is returned by Submit for a tenant name that was not
	// configured at NewServer time.
	ErrUnknownTenant = errors.New("core: unknown tenant")
	// ErrServerClosed is returned by Submit after Close.
	ErrServerClosed = errors.New("core: server closed")
)

// Serving-tier defaults.
const (
	// DefaultTenantDepth bounds a tenant's admission queue when its
	// TenantConfig.QueueDepth is zero.
	DefaultTenantDepth = 64
	// DefaultBatchSize caps a shared sweep when ServerConfig.BatchSize is
	// zero.
	DefaultBatchSize = 16
)

// TenantConfig describes one tenant of a serving tier.
type TenantConfig struct {
	// Name identifies the tenant in Submit calls and metrics.
	Name string
	// Weight is the tenant's weighted-fair share (> 0): with every queue
	// backlogged, tenant i receives Weight_i / ΣWeight of the dispatch
	// slots. Idle tenants' shares redistribute (the discipline is
	// work-conserving).
	Weight float64
	// QueueDepth bounds the tenant's admission queue; a full queue sheds
	// THIS tenant's submissions (ErrQueueFull) without affecting any other
	// tenant's budget (0 = DefaultTenantDepth).
	QueueDepth int
	// SLO is the tenant's per-query latency target, measured on the
	// simulated clock from arrival to result. A pending query whose
	// deadline (arrival + SLO) comes within ServerConfig.DeadlineSlack of
	// the current clock forces a partial-batch dispatch — the deadline-
	// aware batch cut. Zero disables deadlines for the tenant.
	SLO sim.Duration
}

// ServerConfig tunes the multi-tenant serving tier.
type ServerConfig struct {
	// Tenants declares the serving tier's tenants (at least one).
	Tenants []TenantConfig
	// BatchSize caps the queries coalesced into one shared sweep
	// (0 = DefaultBatchSize).
	BatchSize int
	// DeadlineSlack is how close to a pending query's SLO deadline the
	// server lets the simulated clock get before cutting a partial batch.
	// Larger slack dispatches earlier (safer, smaller batches); zero cuts
	// only once a deadline has actually arrived.
	DeadlineSlack sim.Duration
	// AgingRate is the priority-aging gain: each simulated second a query
	// has waited subtracts AgingRate from its virtual-time dispatch tag, so
	// long-queued submissions from light tenants overtake fresher traffic
	// even when the weights disfavor them. Zero disables aging (pure
	// start-time fair queueing).
	AgingRate float64
	// Sync selects the deterministic single-threaded mode: no worker
	// goroutine runs, and batch cuts execute inline inside Submit / Pump /
	// Flush / Close on the caller's goroutine. With submissions issued from
	// one goroutine (the open-loop bench driver), batch composition and
	// every simulated timestamp are a pure function of the submission
	// sequence. The zero value starts a background dispatch worker, the
	// concurrent-server mode.
	Sync bool
	// ManualPump (Sync mode only) stops Submit/SubmitAt from cutting batches
	// inline: admissions only enqueue (and shed), and batches dispatch when
	// the driver calls Pump, AdvanceTo, Flush, or Close. Open-loop drivers
	// need this to model device-paced serving — every arrival that lands
	// while the device is busy must be admitted (and count against its
	// tenant's queue budget) before the next cut is composed; otherwise a
	// backlogged clock makes each submission instantly due and the tier
	// degenerates to singleton batches.
	ManualPump bool
	// OnBatch, when set, observes each dispatched batch's specs just before
	// execution — a test hook for composition assertions.
	OnBatch func(specs []QuerySpec)
}

// servItem is one admitted query: its spec, the caller's result channel,
// and the simulated arrival time (for the sched_queue stage).
type servItem struct {
	spec      QuerySpec
	ch        chan *QueryResult
	submitted sim.Time
	tenant    *tenantState
	// deadline is arrival + tenant SLO (valid only when hasDeadline).
	deadline    sim.Time
	hasDeadline bool
	// start and finish are the item's start-time-fair-queueing virtual
	// tags; dispatch order is ascending aged finish tag.
	start  float64
	finish float64
	seq    uint64
}

// tenantState is one tenant's queue and accounting.
type tenantState struct {
	cfg   TenantConfig
	idx   int
	depth int
	queue []servItem
	// lastFinish is the finish tag of the tenant's most recently admitted
	// item; the next item starts no earlier (per-tenant FIFO in tag space).
	lastFinish float64

	submitted int64
	shed      int64
	served    int64
	failed    int64
}

// TenantStats is one tenant's serving-tier accounting snapshot.
type TenantStats struct {
	// Submitted counts accepted Submit calls; Shed counts submissions
	// rejected because the tenant's own queue was at budget.
	Submitted, Shed int64
	// Served counts delivered results; Failed counts delivered typed
	// errors (QueryResult.Err).
	Served, Failed int64
}

// Server is the engine's admission layer: concurrent Submit calls are
// coalesced into shared multi-query sweeps (QueryMulti), amortizing each
// sweep's flash and weight-streaming traffic across the batch, behind
// per-tenant weighted-fair queues with priority aging, per-tenant admission
// control (an over-budget tenant sheds its own traffic and nobody else's),
// and deadline-aware batch cuts — a batch dispatches early when the oldest
// pending query's SLO deadline approaches on the simulated clock. Every
// served result is bit-identical to a direct Query call and carries the
// sched_queue stage (stage durations still sum exactly to Latency). With one
// weight-1 tenant, no SLO and no aging it is a plain FIFO batching queue
// that cuts when full, on Flush and on Close; no wall clock ever enters
// batch composition.
//
// Dispatch order is start-time fair queueing: item j of tenant i receives a
// virtual start tag S = max(V, F_prev(i)) and finish tag F = S + 1/Weight_i,
// where V is the global virtual time (the start tag of the latest dispatched
// item) and F_prev(i) the tenant's previous finish tag. The next dispatched
// item is the one minimizing F - AgingRate·wait. Backlogged tenants advance
// their tags 1/Weight per item, so dispatch slots divide in proportion to
// weight; an idle tenant's first submission re-enters at V and is served
// promptly regardless of how deep the heavy tenants' backlogs are — the WFQ
// isolation property the serving benchmark measures.
type Server struct {
	ds  *DeepStore
	cfg ServerConfig

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantState
	order   []*tenantState

	vtime   float64
	pending int
	seq     uint64
	// simNow caches the engine clock so admission-path tag and deadline
	// arithmetic never contends on the engine mutex mid-batch. It is
	// refreshed after every dispatched batch and by AdvanceTo.
	simNow sim.Time

	executing bool
	flushers  int
	closed    bool
	done      chan struct{}
}

// NewServer validates the tenant set and starts the serving tier. Callers
// must Close it to flush trailing submissions (and, in the default
// concurrent mode, release the dispatch worker).
func NewServer(ds *DeepStore, cfg ServerConfig) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("core: server needs at least one tenant")
	}
	if cfg.BatchSize < 0 {
		return nil, fmt.Errorf("core: negative batch size %d", cfg.BatchSize)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.DeadlineSlack < 0 {
		return nil, fmt.Errorf("core: negative deadline slack %v", cfg.DeadlineSlack)
	}
	if cfg.AgingRate < 0 {
		return nil, fmt.Errorf("core: negative aging rate %v", cfg.AgingRate)
	}
	if cfg.ManualPump && !cfg.Sync {
		return nil, fmt.Errorf("core: ManualPump requires Sync mode (the async worker pumps on its own)")
	}
	s := &Server{
		ds:      ds,
		cfg:     cfg,
		tenants: make(map[string]*tenantState, len(cfg.Tenants)),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for i, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("core: tenant %d has no name", i)
		}
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("core: duplicate tenant %q", tc.Name)
		}
		if !(tc.Weight > 0) {
			return nil, fmt.Errorf("core: tenant %q weight %v must be > 0", tc.Name, tc.Weight)
		}
		if tc.QueueDepth < 0 || tc.SLO < 0 {
			return nil, fmt.Errorf("core: tenant %q has negative queue depth or SLO", tc.Name)
		}
		ts := &tenantState{cfg: tc, idx: i, depth: tc.QueueDepth}
		if ts.depth == 0 {
			ts.depth = DefaultTenantDepth
		}
		s.tenants[tc.Name] = ts
		s.order = append(s.order, ts)
	}
	s.simNow = ds.Now()
	if !cfg.Sync {
		go s.run()
	}
	return s, nil
}

// Submit admits one query for the tenant, arriving now on the simulated
// clock. The empty tenant name addresses the sole tenant of a one-tenant
// server. See SubmitAt.
func (s *Server) Submit(tenant string, spec QuerySpec) (<-chan *QueryResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitLocked(tenant, spec, s.simNow)
}

// SubmitAt admits one query with an explicit arrival timestamp — the
// open-loop entry point: a query that arrived at T while the device was busy
// is charged queueing delay from T, not from whenever the driver got around
// to submitting it. The returned channel delivers exactly one result (then
// closes); a query that fails after admission delivers a result carrying
// QueryResult.Err. Submit never blocks: a tenant at its queue budget is shed
// with ErrQueueFull (scoped to that tenant alone), an unknown tenant returns
// ErrUnknownTenant, a closed server ErrServerClosed.
func (s *Server) SubmitAt(tenant string, spec QuerySpec, arrival sim.Time) (<-chan *QueryResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitLocked(tenant, spec, arrival)
}

func (s *Server) submitLocked(tenant string, spec QuerySpec, arrival sim.Time) (<-chan *QueryResult, error) {
	if s.closed {
		return nil, ErrServerClosed
	}
	ts, ok := s.tenants[tenant]
	if !ok && tenant == "" && len(s.order) == 1 {
		ts, ok = s.order[0], true
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	tenant = ts.cfg.Name
	if len(ts.queue) >= ts.depth {
		ts.shed++
		s.ds.obs.Counter("serve_shed_" + tenant).Inc()
		s.ds.obs.Counter("serve_shed").Inc()
		return nil, fmt.Errorf("core: tenant %q over budget (%d queued): %w", tenant, len(ts.queue), ErrQueueFull)
	}
	item := servItem{
		spec:      spec,
		ch:        make(chan *QueryResult, 1),
		submitted: arrival,
		tenant:    ts,
		seq:       s.seq,
	}
	s.seq++
	item.start = s.vtime
	if ts.lastFinish > item.start {
		item.start = ts.lastFinish
	}
	item.finish = item.start + 1/ts.cfg.Weight
	ts.lastFinish = item.finish
	if ts.cfg.SLO > 0 {
		item.deadline = arrival + sim.Time(ts.cfg.SLO)
		item.hasDeadline = true
	}
	ts.queue = append(ts.queue, item)
	s.pending++
	ts.submitted++
	s.ds.obs.Counter("serve_submitted_" + tenant).Inc()
	s.ds.obs.Counter("serve_submitted").Inc()
	if !s.cfg.ManualPump {
		s.kickLocked()
	}
	return item.ch, nil
}

// kickLocked lets any due batch cut happen: inline in sync mode, by waking
// the dispatch worker otherwise.
func (s *Server) kickLocked() {
	if s.cfg.Sync {
		s.pumpLocked()
	} else {
		s.cond.Broadcast()
	}
}

// agedKey is the item's dispatch priority: its SFQ finish tag minus the
// aging credit its simulated wait has earned. Smaller is sooner.
func (s *Server) agedKey(it *servItem) float64 {
	key := it.finish
	if s.cfg.AgingRate > 0 {
		if wait := sim.Duration(s.simNow - it.submitted); wait > 0 {
			key -= s.cfg.AgingRate * wait.Seconds()
		}
	}
	return key
}

// cutCause says why a batch dispatched (metrics and test hooks).
type cutCause int

const (
	cutNone cutCause = iota
	cutFull
	cutDeadline
	cutDrain
)

// cutReadyLocked decides whether a batch should dispatch right now.
func (s *Server) cutReadyLocked() cutCause {
	if s.pending == 0 {
		return cutNone
	}
	if s.pending >= s.cfg.BatchSize {
		return cutFull
	}
	if s.closed || s.flushers > 0 {
		return cutDrain
	}
	if dl, ok := s.oldestDeadlineLocked(); ok && dl-sim.Time(s.cfg.DeadlineSlack) <= s.simNow {
		return cutDeadline
	}
	return cutNone
}

// oldestDeadlineLocked returns the earliest deadline among pending queries.
// Within a tenant, arrivals (and therefore deadlines) are FIFO-ordered, so
// scanning each queue head covers all pending items.
func (s *Server) oldestDeadlineLocked() (sim.Time, bool) {
	var min sim.Time
	found := false
	for _, ts := range s.order {
		if len(ts.queue) == 0 || !ts.queue[0].hasDeadline {
			continue
		}
		if !found || ts.queue[0].deadline < min {
			min = ts.queue[0].deadline
			found = true
		}
	}
	return min, found
}

// NextDeadlineCut reports the simulated time at which the deadline-aware
// cut for the oldest pending query fires (deadline minus slack). Open-loop
// drivers advance the clock here when no arrival comes sooner.
func (s *Server) NextDeadlineCut() (sim.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dl, ok := s.oldestDeadlineLocked()
	if !ok {
		return 0, false
	}
	return dl - sim.Time(s.cfg.DeadlineSlack), true
}

// Pending returns the number of admitted, not yet dispatched queries.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// takeBatchLocked pops up to BatchSize items in weighted-fair order:
// repeatedly the queue head with the smallest aged finish tag (ties break
// toward the earlier admission). The global virtual time advances to the
// largest start tag dispatched, so a tenant returning from idle re-enters
// at the current virtual time instead of a stale past.
func (s *Server) takeBatchLocked() []servItem {
	n := s.pending
	if n > s.cfg.BatchSize {
		n = s.cfg.BatchSize
	}
	batch := make([]servItem, 0, n)
	for len(batch) < n {
		var best *tenantState
		var bestKey float64
		for _, ts := range s.order {
			if len(ts.queue) == 0 {
				continue
			}
			key := s.agedKey(&ts.queue[0])
			if best == nil || key < bestKey || (key == bestKey && ts.queue[0].seq < best.queue[0].seq) {
				best, bestKey = ts, key
			}
		}
		it := best.queue[0]
		best.queue = best.queue[1:]
		if it.start > s.vtime {
			s.vtime = it.start
		}
		batch = append(batch, it)
	}
	s.pending -= len(batch)
	return batch
}

// executeBatch runs one dispatched batch through the shared-sweep engine.
// It never touches s.mu or the tenant accounts (obs metrics are internally
// synchronized) — callers fold the returned clock and per-item outcomes back
// in via settleLocked, so sync mode can execute while holding the lock and
// async mode while it is released.
func (s *Server) executeBatch(batch []servItem, cause cutCause) (sim.Time, []error) {
	specs := make([]QuerySpec, len(batch))
	for i, it := range batch {
		specs[i] = it.spec
	}
	if fn := s.cfg.OnBatch; fn != nil {
		fn(specs)
	}
	s.ds.obs.Counter("serve_batches").Inc()
	if cause == cutDeadline {
		s.ds.obs.Counter("serve_deadline_cuts").Inc()
	}
	started := s.ds.Now()
	errs := runSharedBatch(s.ds, batch, specs)
	for i, it := range batch {
		wait := sim.Duration(started - it.submitted)
		if wait < 0 {
			wait = 0
		}
		name := it.tenant.cfg.Name
		s.ds.obs.Histogram("serve_wait_"+name+"_ms", obs.LatencyBucketsMs()).
			Observe(wait.Seconds() * 1e3)
		if errs[i] != nil {
			s.ds.obs.Counter("serve_failed_" + name).Inc()
		} else {
			s.ds.obs.Counter("serve_served_" + name).Inc()
		}
	}
	return s.ds.Now(), errs
}

// settleLocked folds one executed batch's outcome into the clock cache and
// the per-tenant accounts.
func (s *Server) settleLocked(batch []servItem, errs []error, now sim.Time) {
	if now > s.simNow {
		s.simNow = now
	}
	for i, it := range batch {
		if errs[i] != nil {
			it.tenant.failed++
		} else {
			it.tenant.served++
		}
	}
}

// pumpLocked dispatches every due batch inline (sync mode). The engine
// clock advances inside each batch, which can arm further deadline cuts, so
// the loop re-evaluates until no cut is due.
func (s *Server) pumpLocked() {
	for cause := s.cutReadyLocked(); cause != cutNone; cause = s.cutReadyLocked() {
		batch := s.takeBatchLocked()
		now, errs := s.executeBatch(batch, cause)
		s.settleLocked(batch, errs, now)
	}
}

// Pump runs any due batch cuts on the caller's goroutine — the sync-mode
// companion to AdvanceTo (a clock advance can make a deadline cut due). A
// no-op when nothing is due. In async mode it just wakes the worker.
func (s *Server) Pump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kickLocked()
}

// AdvanceTo moves the simulated clock forward to t (no-op if t has passed)
// and runs any deadline cuts that became due. Open-loop drivers call it
// between arrivals so idle time passes and SLO deadlines can fire without
// wall-clock timers — the serving tier's determinism hinges on the clock
// only ever advancing through the device model or through this method.
func (s *Server) AdvanceTo(t sim.Time) {
	s.ds.AdvanceTo(t)
	now := s.ds.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if now > s.simNow {
		s.simNow = now
	}
	s.kickLocked()
}

// Flush dispatches everything admitted so far and returns once it has
// executed. A no-op on a closed (or empty) server.
func (s *Server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.flushers++
	s.kickLocked()
	for s.pending > 0 || s.executing {
		s.cond.Wait()
	}
	s.flushers--
}

// Close stops admission, dispatches every remaining query, and waits for
// all results to be delivered. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.kickLocked()
	s.mu.Unlock()
	if !s.cfg.Sync {
		<-s.done
	}
}

// run is the concurrent-mode dispatch worker.
func (s *Server) run() {
	s.mu.Lock()
	for {
		cause := s.cutReadyLocked()
		if cause == cutNone {
			if s.closed {
				break
			}
			s.cond.Wait()
			continue
		}
		batch := s.takeBatchLocked()
		s.executing = true
		s.mu.Unlock()
		now, errs := s.executeBatch(batch, cause)
		s.mu.Lock()
		s.settleLocked(batch, errs, now)
		s.executing = false
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	close(s.done)
}

// TenantStats snapshots every tenant's admission and delivery accounting.
func (s *Server) TenantStats() map[string]TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantStats, len(s.order))
	for _, ts := range s.order {
		out[ts.cfg.Name] = TenantStats{
			Submitted: ts.submitted,
			Shed:      ts.shed,
			Served:    ts.served,
			Failed:    ts.failed,
		}
	}
	return out
}

// runSharedBatch executes one admitted batch as a shared multi-query sweep
// and delivers every result. A batch-level validation error (all-or-nothing
// QueryMulti) falls back to independent queries so one bad spec cannot sink
// its batch-mates; the fallback is counted (sched_fallback) and a query that
// still fails has its error delivered on its submission channel (never a
// silent drop). The returned slice holds each item's delivery outcome (nil =
// a real result was delivered) for the per-tenant failure accounts.
func runSharedBatch(ds *DeepStore, batch []servItem, specs []QuerySpec) []error {
	errs := make([]error, len(batch))
	started := ds.Now()
	ids, err := ds.QueryMulti(specs)
	if err != nil {
		ds.obs.Counter("sched_fallback").Inc()
		for i, it := range batch {
			started := ds.Now()
			id, qerr := ds.Query(specs[i])
			if qerr != nil {
				failItem(ds, it, qerr)
				errs[i] = qerr
				continue
			}
			errs[i] = deliverItem(ds, it, id, started)
		}
		return errs
	}
	for i, it := range batch {
		errs[i] = deliverItem(ds, it, ids[i], started)
	}
	return errs
}

// failItem completes a submission whose query failed: the channel delivers
// a result carrying the typed error, then closes. Callers therefore always
// receive exactly one value per accepted submission.
func failItem(ds *DeepStore, it servItem, err error) {
	ds.obs.Counter("sched_errors").Inc()
	it.ch <- &QueryResult{Err: err}
	close(it.ch)
}

// deliverItem fetches one query's result, prepends the sched_queue stage
// (the simulated wait between arrival and batch dispatch, so stage durations
// still sum to Latency), and completes the submission channel. The channel
// is the result's only reader, so its entry leaves the engine's result table.
// Returns the delivery error, nil on success.
func deliverItem(ds *DeepStore, it servItem, id QueryID, started sim.Time) error {
	res, err := ds.fetchResults(id, true)
	if err != nil {
		failItem(ds, it, err)
		return err
	}
	qwait := sim.Duration(started - it.submitted)
	if qwait < 0 {
		qwait = 0
	}
	res.Latency += qwait
	res.Stages = append([]obs.Stage{{Name: obs.StageSchedQueue, Dur: qwait}}, res.Stages...)
	ds.obs.Histogram("core_stage_"+obs.StageSchedQueue+"_ms", obs.LatencyBucketsMs()).
		Observe(qwait.Seconds() * 1e3)
	it.ch <- res
	close(it.ch)
	return nil
}
