package accel

import (
	"errors"
	"testing"

	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// BenchmarkScanPaperScale times scans of the sim_paper sweep: declared
// 25 GiB databases on fresh traced devices, each scan cut at its proven
// batch cycle (window 1). ESTP at chip level is the widest calendar (128
// accelerators reading into page buffers, 14 336 page reads before and
// after the cut) and ReId at channel level crosses the channel buses
// (3 183 page reads); both rows time the scan alone. Sweep is the whole sweep:
// one device per application, built inside the timer as a sim_paper op
// builds it, scanned at every level the application runs at (14 scans).
// Every row also reports the events it ran and the host time per event.
func BenchmarkScanPaperScale(b *testing.B) {
	for _, c := range []struct {
		app   string
		level Level
	}{{"ESTP", LevelChip}, {"ReId", LevelChannel}} {
		b.Run(c.app+"/"+c.level.String(), func(b *testing.B) {
			app, err := workload.ByName(c.app)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev, layout := paperDevice(b, app)
				b.StartTimer()
				scanPaperCell(b, dev, app, c.level, layout)
				events += dev.Engine.Executed
			}
			reportEvents(b, events)
		})
	}
	b.Run("Sweep", func(b *testing.B) {
		apps := workload.Apps()
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			for _, app := range apps {
				dev, layout := paperDevice(b, app)
				for _, level := range []Level{LevelSSD, LevelChannel, LevelChip} {
					scanPaperCell(b, dev, app, level, layout)
				}
				events += dev.Engine.Executed
			}
		}
		reportEvents(b, events)
	})
}

// paperDevice builds a fresh traced device and declares a 25 GiB database
// of app's features on it.
func paperDevice(b *testing.B, app *workload.App) (*ssd.Device, ftl.DBLayout) {
	b.Helper()
	dev, err := ssd.New(sim.NewEngine(), ssd.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dev.AttachObs(obs.NewRegistry(), obs.NewTracer(0))
	fb := app.FeatureBytes()
	meta, err := dev.CreateDB(app.Name, fb, (25<<30)/fb)
	if err != nil {
		b.Fatal(err)
	}
	return dev, meta.Layout
}

// scanPaperCell scans the declared database at level. A level the
// application cannot run at is skipped, as the sweep skips it.
func scanPaperCell(b *testing.B, dev *ssd.Device, app *workload.App, level Level, layout ftl.DBLayout) {
	b.Helper()
	_, err := Scan(ScanRequest{
		Device: dev, Spec: SpecForLevel(level, dev.Config),
		Net: app.SCN, Layout: layout,
		WindowFeaturesPerAccel: 1,
	})
	var unsup *ErrUnsupported
	if err != nil && !errors.As(err, &unsup) {
		b.Fatal(err)
	}
}

func reportEvents(b *testing.B, events uint64) {
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(events, 1)), "ns/event")
}
