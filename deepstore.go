// Package deepstore is a from-scratch reproduction of "DeepStore: In-Storage
// Acceleration for Intelligent Queries" (MICRO-52, 2019): an SSD with
// neural-network accelerators at the SSD, channel, and chip levels, a
// similarity-based in-storage query cache, and a lightweight query engine
// exposing the paper's programming API.
//
// The package is a facade over the internal implementation:
//
//   - System is the in-storage query engine (the paper's contribution),
//     offering WriteDB/ReadDB/AppendDB/LoadModel/Query/GetResults/SetQC;
//   - NewNetwork and NewFC build similarity comparison networks;
//   - Apps returns the five Table 1 applications as ready-made workloads;
//   - ClusterEngines, Server and the remote client scale a System out,
//     share it between tenants and drive it over the command protocol.
//
// It re-exports only what the commands, examples, benchmark, tests and docs
// use (docs_test.go holds it to that); the paper's evaluation runs through
// cmd/deepstore-bench (see EXPERIMENTS.md).
//
// Quick start:
//
//	sys, _ := deepstore.New(deepstore.DefaultOptions())
//	app, _ := deepstore.AppByName("TIR")
//	app.SCN.InitRandom(1)
//	db, _ := sys.WriteDB(vectors)
//	model, _ := sys.LoadModelNetwork(app.SCN)
//	qid, _ := sys.Query(deepstore.QuerySpec{QFV: q, K: 10, Model: model, DB: db})
//	res, _ := sys.GetResults(qid)
package deepstore

import (
	"repro/internal/accel"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/topk"
	"repro/internal/workload"
)

// System is a DeepStore engine instance over a simulated SSD.
type System = core.DeepStore

// Options configures a System.
type Options = core.Options

// QuerySpec is the argument block of the query API (Table 2).
type QuerySpec = core.QuerySpec

// QueryResult carries a query's top-K results and simulated cost.
type QueryResult = core.QueryResult

// QueryID identifies a submitted query.
type QueryID = core.QueryID

// DBID identifies a feature database.
type DBID = ftl.DBID

// Result is one top-K entry: feature identity, similarity score, ObjectID.
type Result = topk.Entry

// New creates a DeepStore engine on a fresh simulated device.
func New(opts Options) (*System, error) { return core.New(opts) }

// DefaultOptions returns the paper's evaluation configuration
// (32-channel 1 TB SSD, channel-level accelerators).
func DefaultOptions() Options { return core.DefaultOptions() }

// Level selects where the accelerators attach (Fig. 3).
type Level = accel.Level

// Accelerator placements.
const (
	LevelSSD     = accel.LevelSSD
	LevelChannel = accel.LevelChannel
	LevelChip    = accel.LevelChip
)

// DeviceConfig describes the simulated SSD.
type DeviceConfig = ssd.Config

// DefaultDeviceConfig returns the §6.1 evaluation SSD.
func DefaultDeviceConfig() DeviceConfig { return ssd.DefaultConfig() }

// Network is a two-branch similarity comparison network (SCN/QCN).
type Network = nn.Network

// FC is the fully connected layer type, for callers that set or inspect
// its parameters directly.
type FC = nn.FC

// Quantization helpers: int8 feature conversion and its accuracy cost.
var (
	QuantizeVector    = nn.QuantizeVector
	QuantizeDB        = nn.QuantizeDB
	QuantizationError = nn.QuantizationError
	ScoreDrift        = nn.ScoreDrift
)

// ErrQuantPruneApprox rejects Options.Prune combined with approximate
// quantized scoring: stripe bounds are float32 envelopes and only bound fp32
// scores, so pruning requires the two-pass exact mode (Options.Quantized
// with RerankMargin > 0 — see DESIGN.md §12).
var ErrQuantPruneApprox = core.ErrQuantPruneApprox

// Network construction and the model codec (the loadModel format).
var (
	NewFC        = nn.NewFC
	NewNetwork   = nn.NewNetwork
	MarshalModel = nn.Marshal
)

// CombineHadamard is the element-wise product front end of a two-branch
// network.
const CombineHadamard = nn.CombineHadamard

// Activations.
const (
	ActNone    = nn.ActNone
	ActReLU    = nn.ActReLU
	ActSigmoid = nn.ActSigmoid
)

// App is one of the five studied intelligent-query applications (Table 1).
type App = workload.App

// Apps returns the Table 1 model zoo (fresh, zero-weight networks).
func Apps() []*App { return workload.Apps() }

// AppByName returns one application by its Table 1 name.
func AppByName(name string) (*App, error) { return workload.ByName(name) }

// NewFeatureDB materializes a deterministic synthetic feature database for
// an application.
func NewFeatureDB(app *App, n int, seed int64) *workload.FeatureDB {
	return workload.NewFeatureDB(app, n, seed)
}

// Trace is a query stream with temporal locality and semantic similarity
// (§6.5). Generate with GenerateTrace, persist with Trace.Save / LoadTrace,
// and drive through an engine with System.ReplayTrace.
type Trace = workload.Trace

// TraceConfig parameterizes trace generation.
type TraceConfig = workload.TraceConfig

// Zipfian selects a skewed trace distribution (the zero TraceConfig.Dist
// is uniform).
const Zipfian = workload.Zipfian

// GenerateTrace builds a deterministic query trace.
func GenerateTrace(cfg TraceConfig) *Trace { return workload.GenerateTrace(cfg) }

// LoadTrace reads a trace written by Trace.Save.
var LoadTrace = workload.LoadTrace

// ShardedScan shards a database across n simulated SSDs and scans every
// shard in parallel — the Fig. 10b scale-out deployment.
func ShardedScan(n int, app *App, level Level, devCfg DeviceConfig, features int64) (cluster.Result, error) {
	return cluster.ShardedScan(n, app, level, devCfg, features)
}

// ClusterEngines is a functional scale-out deployment: full DeepStore
// engines each holding a contiguous shard of one materialized database,
// with single- and batch-query fan-out and global top-K merging.
type ClusterEngines = cluster.Engines

// NewClusterEngines creates n DeepStore engines with identical options.
func NewClusterEngines(n int, opts Options) (*ClusterEngines, error) {
	return cluster.NewEngines(n, opts)
}

// SimDuration is a simulated span (picoseconds): QueryResult latencies and
// tenant SLOs are expressed in it.
type SimDuration = sim.Duration

// Simulated time units.
const (
	SimMicrosecond = sim.Microsecond
	SimMillisecond = sim.Millisecond
)

// Server is the admission layer in front of a System: submissions coalesce
// into shared multi-query sweeps (System.QueryMulti) behind per-tenant
// weighted-fair queues (start-time fair queueing with optional priority
// aging), per-tenant admission budgets shed with ErrQueueFull, and
// deadline-aware batch cuts on the simulated clock. Submit only admits;
// batches run on the caller's goroutine in Pump, AdvanceTo, Flush and Close.
// One weight-1 tenant with no SLO is a plain FIFO batching queue. Results
// stay bit-identical to direct Query calls.
type Server = core.Server

// ServerConfig configures the serving tier's tenants, batch size, deadline
// slack and aging rate.
type ServerConfig = core.ServerConfig

// TenantConfig is one tenant's weight, queue budget, and latency SLO.
type TenantConfig = core.TenantConfig

// NewServer builds a serving tier over an engine; Close it to drain.
func NewServer(sys *System, cfg ServerConfig) (*Server, error) {
	return core.NewServer(sys, cfg)
}

// ErrQueueFull is Submit's backpressure signal: the tenant's queue budget
// is spent.
var ErrQueueFull = core.ErrQueueFull

// MoveSpec names a contiguous global feature range to migrate from one
// shard to another. Dest AddShard grows the cluster by one shard.
type MoveSpec = cluster.MoveSpec

// MoveReport summarizes a completed (or aborted) migration: features moved,
// chunks copied, and the device time charged to source reads and
// destination writes.
type MoveReport = cluster.MoveReport

// Rebalancer migrates a feature range chunk-by-chunk while the cluster
// keeps answering queries; each Step copies one chunk through the simulated
// device path and flips routing atomically, so answers stay bit-identical
// throughout.
type Rebalancer = cluster.Rebalancer

// AddShard as a MoveSpec destination grows the cluster with a fresh shard.
const AddShard = cluster.AddShard

// NewRebalancer validates a move and interlocks the source range; drive it
// with Step or use ClusterEngines.Rebalance to run to completion.
func NewRebalancer(e *ClusterEngines, spec MoveSpec) (*Rebalancer, error) {
	return cluster.NewRebalancer(e, spec)
}

// Migration sentinel errors: ErrMigrating rejects mutating admin ops on a
// database mid-migration; ErrRebalanceActive rejects cluster topology
// changes while a Rebalancer holds the cluster.
var (
	ErrMigrating       = core.ErrMigrating
	ErrRebalanceActive = cluster.ErrRebalanceActive
)

// AdmissionLearned, as Options.CacheAdmission, replaces the query cache's
// plain LRU with history-learned admission (requires Options.History — see
// DESIGN.md §15).
const AdmissionLearned = core.AdmissionLearned

// HistoryStats summarizes the persistent query-history store: retained,
// appended and retired record counts, retained bytes, the learned model's
// group count, and prefetched entries.
type HistoryStats = core.HistoryStats

// ErrHistoryCorrupt reports a corrupted or truncated on-flash query-history
// image; RestoreHistory wraps it and degrades to a cold-start (empty
// history) rather than failing the engine.
var ErrHistoryCorrupt = core.ErrHistoryCorrupt
