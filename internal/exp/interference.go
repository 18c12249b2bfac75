package exp

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Interference study. §4.5 claims the accelerators sit only in the read path
// and "do not introduce much overhead to regular storage operations"; this
// experiment quantifies the mutual slowdown when an in-storage scan and a
// regular host read stream share the device: the scan and a StreamToHost of
// a second database run concurrently on one engine, and both are compared
// against their isolated runs.
type InterferenceResult struct {
	App   string
	Level accel.Level
	// ScanAloneSec and ScanSharedSec are the scan's isolated vs. contended
	// times; StreamAloneSec and StreamSharedSec likewise for the host read.
	ScanAloneSec    float64
	ScanSharedSec   float64
	StreamAloneSec  float64
	StreamSharedSec float64
}

// ScanSlowdown is contended/isolated for the scan.
func (r InterferenceResult) ScanSlowdown() float64 { return r.ScanSharedSec / r.ScanAloneSec }

// StreamSlowdown is contended/isolated for the regular host read.
func (r InterferenceResult) StreamSlowdown() float64 {
	return r.StreamSharedSec / r.StreamAloneSec
}

// Interference runs the study for one application and level. scanFeatures
// and streamFeatures size the two databases (both exact-simulated; keep them
// modest).
func Interference(appName string, level accel.Level, scanFeatures, streamFeatures int64) (InterferenceResult, error) {
	app, err := workload.ByName(appName)
	if err != nil {
		return InterferenceResult{}, err
	}
	res := InterferenceResult{App: appName, Level: level}

	build := func() (*ssd.Device, *sim.Engine, error) {
		e := sim.NewEngine()
		dev, err := ssd.New(e, ssd.DefaultConfig())
		return dev, e, err
	}

	// Isolated scan.
	{
		dev, _, err := build()
		if err != nil {
			return res, err
		}
		meta, err := dev.CreateDB("scan", app.FeatureBytes(), scanFeatures)
		if err != nil {
			return res, err
		}
		out, err := accel.Scan(accel.ScanRequest{
			Device: dev, Spec: accel.SpecForLevel(level, dev.Config),
			Net: app.SCN, Layout: meta.Layout,
		})
		if err != nil {
			return res, err
		}
		res.ScanAloneSec = out.Elapsed.Seconds()
	}

	// Isolated stream.
	{
		dev, e, err := build()
		if err != nil {
			return res, err
		}
		meta, err := dev.CreateDB("stream", app.FeatureBytes(), streamFeatures)
		if err != nil {
			return res, err
		}
		var stats ssd.StreamStats
		dev.StreamToHost(meta, 0, func(s ssd.StreamStats) { stats = s })
		e.Run()
		res.StreamAloneSec = stats.Duration().Seconds()
	}

	// Shared device: the stream starts, then the scan runs on the same
	// engine; both contend for planes and channel buses.
	{
		dev, e, err := build()
		if err != nil {
			return res, err
		}
		scanMeta, err := dev.CreateDB("scan", app.FeatureBytes(), scanFeatures)
		if err != nil {
			return res, err
		}
		streamMeta, err := dev.CreateDB("stream", app.FeatureBytes(), streamFeatures)
		if err != nil {
			return res, err
		}
		var stats ssd.StreamStats
		done := false
		dev.StreamToHost(streamMeta, 0, func(s ssd.StreamStats) { stats = s; done = true })
		out, err := accel.Scan(accel.ScanRequest{
			Device: dev, Spec: accel.SpecForLevel(level, dev.Config),
			Net: app.SCN, Layout: scanMeta.Layout,
		})
		if err != nil {
			return res, err
		}
		e.Run() // drain the stream if it outlives the scan
		if !done {
			return res, fmt.Errorf("exp: interference stream never completed")
		}
		res.ScanSharedSec = out.Elapsed.Seconds()
		res.StreamSharedSec = stats.Duration().Seconds()
	}
	return res, nil
}

// interferenceTable tabulates the study.
func interferenceTable(rows []InterferenceResult) report.Table {
	header := []string{"App", "Level", "Scan alone(s)", "Scan shared(s)", "Scan slowdown",
		"Stream alone(s)", "Stream shared(s)", "Stream slowdown"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App, r.Level.String(),
			F(r.ScanAloneSec), F(r.ScanSharedSec), F(r.ScanSlowdown()),
			F(r.StreamAloneSec), F(r.StreamSharedSec), F(r.StreamSlowdown()),
		})
	}
	return report.Table{Name: "interference", Header: header, Rows: out}
}
