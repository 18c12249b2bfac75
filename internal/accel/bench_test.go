package accel

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// BenchmarkScanPaperScale times one scan of the sim_paper sweep: a declared
// 25 GiB database at DefaultWindow on a fresh traced device. ESTP at
// chip level is the deepest calendar (128 accelerators, 131 072 page reads
// into page buffers); ReId at channel level reads 98 304 pages across the
// channel buses. Device set-up is outside the timer.
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
			fb := app.FeatureBytes()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev, err := ssd.New(sim.NewEngine(), ssd.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				dev.AttachObs(obs.NewRegistry(), obs.NewTracer(0))
				meta, err := dev.CreateDB(c.app, fb, (25<<30)/fb)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := Scan(ScanRequest{
					Device: dev, Spec: SpecForLevel(c.level, dev.Config),
					Net: app.SCN, Layout: meta.Layout,
					WindowFeaturesPerAccel: DefaultWindow,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
