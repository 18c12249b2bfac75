// Package exp implements the paper's evaluation: one function per table and
// figure, each returning structured rows, and one Study per experiment in
// the Studies registry (studies.go) that renders those rows as tables,
// charts and JSON artifacts for the deepstore-bench and deepstore-report
// commands. EXPERIMENTS.md records these outputs against the paper's
// reported values.
package exp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/accel"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/topk"
	"repro/internal/workload"
)

// ScanOutcome is one DeepStore scan measurement.
type ScanOutcome struct {
	Level       accel.Level
	Seconds     float64
	Energy      energy.Breakdown
	Result      accel.ScanResult
	Unsupported bool
}

// RunScan executes one scan of a features-long database of the application
// on a fresh simulated device with the given accelerators
// (accel.SpecForLevel(level, devCfg) for a Table 3 design; the ablations
// swap its dataflow or precision). The database layout follows the spec's
// precision: quantized features are stored quantized. A level the network
// cannot run on comes back as an Unsupported outcome, not an error.
func RunScan(app *workload.App, spec accel.Spec, devCfg ssd.Config, features int64) (ScanOutcome, error) {
	return runScan(app, spec, devCfg, features, 1)
}

// runScan is RunScan at a given accel.ScanRequest window: the same outcome
// at every window, which the tests check.
func runScan(app *workload.App, spec accel.Spec, devCfg ssd.Config, features, window int64) (ScanOutcome, error) {
	e := sim.NewEngine()
	dev, err := ssd.New(e, devCfg)
	if err != nil {
		return ScanOutcome{}, err
	}
	featureBytes := int64(app.SCN.FeatureElems()) * spec.Array.Precision.ElementBytes()
	meta, err := dev.CreateDB(app.Name, featureBytes, features)
	if err != nil {
		return ScanOutcome{}, err
	}
	res, err := accel.Scan(accel.ScanRequest{
		Device: dev, Spec: spec, Net: app.SCN, Layout: meta.Layout,
		WindowFeaturesPerAccel: window,
	})
	if err != nil {
		if errors.As(err, new(*accel.ErrUnsupported)) {
			return ScanOutcome{Level: spec.Level, Unsupported: true}, nil
		}
		return ScanOutcome{}, err
	}
	return ScanOutcome{
		Level:   spec.Level,
		Seconds: res.Elapsed.Seconds(),
		Energy:  energy.Energy(res.Activity),
		Result:  res,
	}, nil
}

// newEngine builds a fresh engine holding the vectors and the comparison
// network: the preamble of every study on a materialized database.
func newEngine(opts core.Options, vectors [][]float32, scn *nn.Network) (*core.DeepStore, core.ModelID, ftl.DBID, error) {
	ds, err := core.New(opts)
	if err != nil {
		return nil, 0, 0, err
	}
	dbID, err := ds.WriteDB(vectors)
	if err != nil {
		return nil, 0, 0, err
	}
	model, err := ds.LoadModelNetwork(scn)
	if err != nil {
		return nil, 0, 0, err
	}
	return ds, model, dbID, nil
}

// queryNow submits one query and collects its results.
func queryNow(ds *core.DeepStore, spec core.QuerySpec) (*core.QueryResult, error) {
	qid, err := ds.Query(spec)
	if err != nil {
		return nil, err
	}
	return ds.GetResults(qid)
}

// replay is one query stream run through a fresh engine.
type replay struct {
	ds      *core.DeepStore
	results []*core.QueryResult
	// clock is how far the engine clock advanced over the stream; latency
	// sums the queries' own latencies, which also count the stages charged
	// to a query but not to the engine clock (bound checks, rerank).
	clock, latency sim.Duration
	wallSec        float64
}

// replayStream builds a fresh engine over vectors and scn, lets setup
// (when non-nil) configure it, and runs qfvs through it one query at a time.
func replayStream(opts core.Options, vectors [][]float32, scn *nn.Network, setup func(*core.DeepStore) error, qfvs [][]float32, k int) (replay, error) {
	ds, model, dbID, err := newEngine(opts, vectors, scn)
	if err == nil && setup != nil {
		err = setup(ds)
	}
	if err != nil {
		return replay{}, err
	}
	r := replay{ds: ds}
	wallStart := time.Now()
	simStart := ds.Now()
	for _, q := range qfvs {
		res, err := queryNow(ds, core.QuerySpec{QFV: q, K: k, Model: model, DB: dbID})
		if err != nil {
			return replay{}, err
		}
		r.results = append(r.results, res)
		r.latency += res.Latency
	}
	r.clock = sim.Duration(ds.Now() - simStart)
	r.wallSec = time.Since(wallStart).Seconds()
	return r, nil
}

// queryVectors generates the trace and returns its queries as vectors of
// dims elements.
func queryVectors(tc workload.TraceConfig, dims int, seed int64) [][]float32 {
	trace := workload.GenerateTrace(tc)
	qfvs := make([][]float32, len(trace.Queries))
	for i, q := range trace.Queries {
		qfvs[i] = workload.QueryVector(q, dims, seed)
	}
	return qfvs
}

// mismatches counts the entries of got that differ from ref in any field
// (FeatureID, Score, ObjectID); a top-K of the wrong length misses all of ref.
func mismatches(ref, got []topk.Entry) int {
	if len(got) != len(ref) {
		return len(ref)
	}
	n := 0
	for j := range ref {
		if got[j] != ref[j] {
			n++
		}
	}
	return n
}

// overlap counts the entries of got whose FeatureID is also in truth: the
// numerator of recall@K.
func overlap(truth, got []topk.Entry) int {
	n := 0
	for _, g := range got {
		for _, e := range truth {
			if e.FeatureID == g.FeatureID {
				n++
				break
			}
		}
	}
	return n
}

// newCluster is newEngine for a sharded cluster of default engines.
func newCluster(shards int, vectors [][]float32, scn *nn.Network) (*cluster.Engines, error) {
	e, err := cluster.NewEngines(shards, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := e.WriteDB(vectors); err != nil {
		return nil, err
	}
	if err := e.LoadModel(scn); err != nil {
		return nil, err
	}
	return e, nil
}

// Ratio returns a/b, or NaN when b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// F formats a float compactly for tables.
func F(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/s"
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
