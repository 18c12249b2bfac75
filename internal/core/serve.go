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
	// onBatch, when set, observes each dispatched batch's specs just before
	// execution — a package test hook for composition assertions.
	onBatch func(specs []QuerySpec)
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
	depth int
	queue []servItem
	// lastFinish is the finish tag of the tenant's most recently admitted
	// item; the next item starts no earlier (per-tenant FIFO in tag space).
	lastFinish float64
	stats      TenantStats
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

// Server is the engine's admission layer: submitted queries are coalesced
// into shared multi-query sweeps (Do), amortizing each sweep's flash
// and weight-streaming traffic across the batch, behind per-tenant
// weighted-fair queues with priority aging, per-tenant admission control (an
// over-budget tenant sheds its own traffic and nobody else's), and
// deadline-aware batch cuts — a batch dispatches early when the oldest
// pending query's SLO deadline approaches on the simulated clock. Every
// served result is bit-identical to a direct Query call and carries the
// sched_queue stage (stage durations still sum exactly to Latency). With one
// weight-1 tenant, no SLO and no aging it is a plain FIFO batching queue.
//
// The caller drives it, as the one dispatcher of §4.7.1 advances one device
// timeline: Submit and SubmitAt only admit or shed, and batches run on the
// caller's goroutine inside Pump (due cuts), AdvanceTo (due cuts after the
// clock moves), Flush and Close (everything queued). Batch composition and
// every simulated timestamp are therefore a pure function of the call
// sequence; no goroutine and no wall clock enter it. A result channel
// delivers once its batch has run, so a caller that waits on one must have
// a Flush, Close or due cut run first.
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

	// mu guards the queues and accounts below and is held while a batch
	// runs, so batches never overlap and a Submit racing one waits it out.
	mu      sync.Mutex
	tenants map[string]*tenantState
	order   []*tenantState

	vtime   float64
	pending int
	seq     uint64
	closed  bool
}

// NewServer validates the tenant set and builds the serving tier. Callers
// must Close it to run trailing submissions.
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
	s := &Server{
		ds:      ds,
		cfg:     cfg,
		tenants: make(map[string]*tenantState, len(cfg.Tenants)),
	}
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
		ts := &tenantState{cfg: tc, depth: tc.QueueDepth}
		if ts.depth == 0 {
			ts.depth = DefaultTenantDepth
		}
		s.tenants[tc.Name] = ts
		s.order = append(s.order, ts)
	}
	return s, nil
}

// Submit admits one query for the tenant, arriving now on the engine's
// simulated clock. The empty tenant name addresses the sole tenant of a
// one-tenant server. See SubmitAt.
func (s *Server) Submit(tenant string, spec QuerySpec) (<-chan *QueryResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitLocked(tenant, spec, s.ds.Now())
}

// SubmitAt admits one query with an explicit arrival timestamp — the
// open-loop entry point: a query that arrived at T while the device was busy
// is charged queueing delay from T, not from whenever the driver got around
// to submitting it. The returned channel delivers exactly one result (then
// closes) once the query's batch has run; a query that fails after admission
// delivers a result carrying QueryResult.Err. Submit never waits for queue
// space: a tenant at its queue budget is shed with ErrQueueFull (scoped to
// that tenant alone), an unknown tenant returns ErrUnknownTenant, a closed
// server ErrServerClosed.
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
		ts.stats.Shed++
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
	ts.stats.Submitted++
	s.ds.obs.Counter("serve_submitted_" + tenant).Inc()
	s.ds.obs.Counter("serve_submitted").Inc()
	return item.ch, nil
}

// agedKey is the item's dispatch priority at simulated time now: its SFQ
// finish tag minus the aging credit its wait has earned. Smaller is sooner.
func (s *Server) agedKey(it *servItem, now sim.Time) float64 {
	key := it.finish
	if s.cfg.AgingRate > 0 {
		if wait := sim.Duration(now - it.submitted); wait > 0 {
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

// cutReadyLocked decides whether a batch should dispatch at simulated time
// now; drain (Flush, Close) also cuts a partial batch.
func (s *Server) cutReadyLocked(now sim.Time, drain bool) cutCause {
	if s.pending == 0 {
		return cutNone
	}
	if s.pending >= s.cfg.BatchSize {
		return cutFull
	}
	if drain {
		return cutDrain
	}
	if dl, ok := s.oldestDeadlineLocked(); ok && dl-sim.Time(s.cfg.DeadlineSlack) <= now {
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

// takeBatchLocked pops up to BatchSize items in weighted-fair order at
// simulated time now: repeatedly the queue head with the smallest aged
// finish tag (ties break toward the earlier admission). The global virtual
// time advances to the largest start tag dispatched, so a tenant returning
// from idle re-enters at the current virtual time instead of a stale past.
func (s *Server) takeBatchLocked(now sim.Time) []servItem {
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
			key := s.agedKey(&ts.queue[0], now)
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

// runBatchLocked runs one dispatched batch through Do and delivers each
// result on its channel: with Err set (sched_errors) for a refused spec, or
// all if the scan failed; else with the sched_queue stage and span, the wait
// from arrival to dispatch, so its stages still sum to Latency.
func (s *Server) runBatchLocked(batch []servItem, cause cutCause, started sim.Time) {
	specs := make([]QuerySpec, len(batch))
	for i, it := range batch {
		specs[i] = it.spec
	}
	if fn := s.cfg.onBatch; fn != nil {
		fn(specs)
	}
	s.ds.obs.Counter("serve_batches").Inc()
	if cause == cutDeadline {
		s.ds.obs.Counter("serve_deadline_cuts").Inc()
	}
	results, err := s.ds.Do(specs)
	for i, it := range batch {
		wait := max(sim.Duration(started-it.submitted), 0)
		name := it.tenant.cfg.Name
		s.ds.obs.Histogram("serve_wait_"+name+"_ms", latencyBucketsMs).Observe(wait.Seconds() * 1e3)
		res := &QueryResult{Err: err}
		if err == nil {
			res = results[i]
		}
		if res.Err != nil {
			s.ds.obs.Counter("sched_errors").Inc()
			s.ds.obs.Counter("serve_failed_" + name).Inc()
			it.tenant.stats.Failed++
		} else {
			res.Latency += wait
			res.Stages = append([]obs.Stage{{Name: obs.StageSchedQueue, Dur: wait}}, res.Stages...)
			s.ds.observeStage(obs.StageSchedQueue, wait)
			s.ds.tracer.Add(obs.Span{Name: obs.StageSchedQueue, Cat: "core", TID: int64(res.ID), Start: started - sim.Time(wait), Dur: wait})
			s.ds.obs.Counter("serve_served_" + name).Inc()
			it.tenant.stats.Served++
		}
		it.ch <- res
		close(it.ch)
	}
}

// pumpLocked runs every due batch on the caller's goroutine; drain also
// cuts partial batches until the queues are empty. The engine clock
// advances inside each batch, which can arm further deadline cuts, so the
// loop re-evaluates until no cut is due.
func (s *Server) pumpLocked(drain bool) {
	for {
		now := s.ds.Now()
		cause := s.cutReadyLocked(now, drain)
		if cause == cutNone {
			return
		}
		s.runBatchLocked(s.takeBatchLocked(now), cause, now)
	}
}

// Pump runs every due batch cut — a full batch, or a deadline within its
// slack of the clock — on the caller's goroutine. A no-op when nothing is
// due.
func (s *Server) Pump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pumpLocked(false)
}

// AdvanceTo moves the simulated clock forward to t (no-op if t has passed)
// and runs any cuts that became due. Open-loop callers use it between
// arrivals so idle time passes and SLO deadlines can fire without wall-clock
// timers — the serving tier's determinism hinges on the clock only ever
// advancing through the device model or through this method.
func (s *Server) AdvanceTo(t sim.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ds.AdvanceTo(t)
	s.pumpLocked(false)
}

// Flush runs everything admitted so far, partial batches included, and
// returns once every result is delivered. A no-op on an empty (or closed)
// server.
func (s *Server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pumpLocked(true)
}

// Close stops admission and runs every remaining query, returning once all
// results are delivered. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.pumpLocked(true)
}

// TenantStats snapshots every tenant's admission and delivery accounting.
func (s *Server) TenantStats() map[string]TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantStats, len(s.order))
	for _, ts := range s.order {
		out[ts.cfg.Name] = ts.stats
	}
	return out
}
