package exp

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/ftl"
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
	// run puts a scan database and a stream database of the given sizes (0 =
	// none) on one fresh device, starts the stream, then runs the scan on the
	// same engine, so when both exist they contend for planes and channel
	// buses.
	run := func(scanFeatures, streamFeatures int64) (scanSec, streamSec float64, err error) {
		e := sim.NewEngine()
		dev, err := ssd.New(e, ssd.DefaultConfig())
		if err != nil {
			return 0, 0, err
		}
		var scanDB *ftl.DBMeta
		if scanFeatures > 0 {
			if scanDB, err = dev.CreateDB("scan", app.FeatureBytes(), scanFeatures); err != nil {
				return 0, 0, err
			}
		}
		done := streamFeatures == 0
		if !done {
			streamDB, err := dev.CreateDB("stream", app.FeatureBytes(), streamFeatures)
			if err != nil {
				return 0, 0, err
			}
			dev.StreamToHost(streamDB, 0, func(s ssd.StreamStats) { streamSec, done = s.Duration().Seconds(), true })
		}
		if scanDB != nil {
			out, err := accel.Scan(accel.ScanRequest{
				Device: dev, Spec: accel.SpecForLevel(level, dev.Config),
				Net: app.SCN, Layout: scanDB.Layout,
			})
			if err != nil {
				return 0, 0, err
			}
			scanSec = out.Elapsed.Seconds()
		}
		e.Run() // drain the stream if it outlives the scan
		if !done {
			return 0, 0, fmt.Errorf("exp: interference stream never completed")
		}
		return scanSec, streamSec, nil
	}
	res := InterferenceResult{App: appName, Level: level}
	if res.ScanAloneSec, _, err = run(scanFeatures, 0); err != nil {
		return res, err
	}
	if _, res.StreamAloneSec, err = run(0, streamFeatures); err != nil {
		return res, err
	}
	res.ScanSharedSec, res.StreamSharedSec, err = run(scanFeatures, streamFeatures)
	return res, err
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
