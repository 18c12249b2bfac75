// Package exp implements the paper's evaluation: one function per table and
// figure, each returning structured rows, and one Study per experiment in
// the Studies registry (studies.go) that renders those rows as tables,
// charts and JSON artifacts for the deepstore-bench and deepstore-report
// commands. EXPERIMENTS.md records these outputs against the paper's
// reported values.
package exp

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// DefaultWindow is the per-accelerator feature window used by the
// event-driven scans. Scans are homogeneous steady-state pipelines, so the
// extrapolation error is small (see accel.Scan); tests validate it.
const DefaultWindow = 3000

// ScanOutcome is one DeepStore scan measurement.
type ScanOutcome struct {
	Level       accel.Level
	Seconds     float64
	Energy      energy.Breakdown
	Result      accel.ScanResult
	Unsupported bool
}

// RunScan executes one windowed scan of the application's §6.1 database
// (25 GiB of features) on a fresh simulated device.
func RunScan(app *workload.App, level accel.Level, devCfg ssd.Config, window int64) (ScanOutcome, error) {
	return RunScanFeatures(app, level, devCfg, workload.PaperSpec(app).Features, window)
}

// RunScanFeatures is RunScan with an explicit database size.
func RunScanFeatures(app *workload.App, level accel.Level, devCfg ssd.Config, features, window int64) (ScanOutcome, error) {
	return RunScanCustom(app, accel.SpecForLevel(level, devCfg), devCfg, features, window)
}

// RunScanCustom runs a scan with an explicit accelerator spec (used by the
// ablation studies to swap dataflow or precision). The database layout
// follows the spec's precision: quantized features are stored quantized.
func RunScanCustom(app *workload.App, spec accel.Spec, devCfg ssd.Config, features, window int64) (ScanOutcome, error) {
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
		var unsup *accel.ErrUnsupported
		if ok := asUnsupported(err, &unsup); ok {
			return ScanOutcome{Level: spec.Level, Unsupported: true}, nil
		}
		return ScanOutcome{}, err
	}
	model := energy.DefaultModel()
	model.MACJoules *= spec.Array.Precision.MACEnergyScale()
	return ScanOutcome{
		Level:   spec.Level,
		Seconds: res.Elapsed.Seconds(),
		Energy:  model.Energy(res.Activity),
		Result:  res,
	}, nil
}

func asUnsupported(err error, target **accel.ErrUnsupported) bool {
	u, ok := err.(*accel.ErrUnsupported)
	if ok {
		*target = u
	}
	return ok
}

// BaselineScan returns the GPU+SSD baseline's scan time and energy for the
// application's §6.1 database at its §6.2 batch size.
func BaselineScan(app *workload.App, cfg baseline.Config, features int64) (seconds float64, energyJ float64) {
	t, _ := cfg.ScanTime(app, features, app.DefaultBatch)
	return t, cfg.EnergyJ(t)
}

// scanRecord couples one (app, level) scan with its outcome for experiments
// that iterate the full matrix.
type scanRecord struct {
	app   string
	level accel.Level
	out   ScanOutcome
	err   error
}

// collectAllScans runs every application at every accelerator level on the
// default device.
func collectAllScans(window int64) []scanRecord {
	devCfg := ssd.DefaultConfig()
	var recs []scanRecord
	for _, app := range workload.Apps() {
		for _, level := range accel.Levels() {
			out, err := RunScan(app, level, devCfg, window)
			recs = append(recs, scanRecord{app: app.Name, level: level, out: out, err: err})
		}
	}
	return recs
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
