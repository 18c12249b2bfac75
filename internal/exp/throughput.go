package exp

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/report"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Query-throughput study. The paper evaluates single-query scan latency;
// a deployed query service also cares about sustained load. This extension
// treats each system as an M/D/1 queue — Poisson arrivals, deterministic
// per-query service (a full scan, or a QC lookup/miss mix) — and reports
// the saturation throughput plus the mean latency at fractions of it.

// ThroughputRow is one system's service envelope for one application.
type ThroughputRow struct {
	App    string
	System string
	// ServiceSec is the deterministic per-query service time.
	ServiceSec float64
	// SaturationQPS is 1/ServiceSec.
	SaturationQPS float64
	// LatencyAt maps utilization (0.5, 0.8, 0.95) to mean sojourn time.
	LatencyAt map[float64]float64
}

// mD1Sojourn returns the M/D/1 mean sojourn time at utilization rho for
// deterministic service time s: W = s + rho*s/(2(1-rho)).
func mD1Sojourn(s, rho float64) float64 {
	if rho <= 0 || rho >= 1 {
		return math.NaN()
	}
	return s + rho*s/(2*(1-rho))
}

// Throughput computes the envelope for the GPU+SSD baseline and the
// channel-level DeepStore design, with and without the query cache (at the
// given steady-state miss rate).
func Throughput(qcMissRate float64) ([]ThroughputRow, error) {
	if qcMissRate < 0 || qcMissRate > 1 {
		return nil, fmt.Errorf("exp: miss rate %v outside [0,1]", qcMissRate)
	}
	baseCfg := baseline.DefaultConfig()
	devCfg := ssd.DefaultConfig()
	utils := []float64{0.5, 0.8, 0.95}
	var rows []ThroughputRow

	addRow := func(app, system string, service float64) {
		r := ThroughputRow{
			App: app, System: system,
			ServiceSec:    service,
			SaturationQPS: 1 / service,
			LatencyAt:     map[float64]float64{},
		}
		for _, u := range utils {
			r.LatencyAt[u] = mD1Sojourn(service, u)
		}
		rows = append(rows, r)
	}

	for _, app := range workload.Apps() {
		features := workload.PaperSpec(app).Features
		baseSec, _ := baseCfg.ScanTime(app, features, app.DefaultBatch)
		addRow(app.Name, "Traditional", baseSec)

		spec := accel.SpecForLevel(accel.LevelChannel, devCfg)
		out, err := RunScan(app, spec, devCfg, features)
		if err != nil {
			return nil, err
		}
		addRow(app.Name, "DeepStore", out.Seconds)

		// With the query cache: service = miss*scan + lookup (the lookup
		// runs on every query; hits skip the scan).
		qcn := app.QCN()
		perQCN := float64(spec.Array.NetworkCost(qcn.LayerPlan()).Cycles) / spec.Array.FreqHz
		lookup := perQCN * float64((1000+spec.Count-1)/spec.Count)
		addRow(app.Name, "DeepStore+QC", qcMissRate*out.Seconds+lookup)
	}
	return rows, nil
}

// throughputTable tabulates the study.
func throughputTable(rows []ThroughputRow) report.Table {
	header := []string{"App", "System", "Service(s)", "Sat QPS", "Lat@50%", "Lat@80%", "Lat@95%"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App, r.System, F(r.ServiceSec), F(r.SaturationQPS),
			F(r.LatencyAt[0.5]), F(r.LatencyAt[0.8]), F(r.LatencyAt[0.95]),
		})
	}
	return report.Table{Name: "throughput", Header: header, Rows: out}
}
