package baseline

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// WimpyScanDES is the event-driven counterpart of Wimpy.ScanTime: the SCN
// executed by the SSD's embedded cores, which read striped pages from all
// channels into controller DRAM and compute at their NEON throughput. It
// exists to cross-validate the analytic wimpy model against the same flash
// subsystem the accelerators use — the §6.2 "wimpy cores" bar of Fig. 8.
//
// windowPages bounds the simulated pages per channel (0 = exact); the result
// extrapolates linearly from them.
func (w Wimpy) WimpyScanDES(app *workload.App, devCfg ssd.Config, features, windowPages int64) (sim.Duration, error) {
	if w.Cores <= 0 || w.FreqHz <= 0 || w.FLOPsPerCyc <= 0 || w.Efficiency <= 0 {
		return 0, fmt.Errorf("baseline: invalid wimpy config %+v", w)
	}
	e := sim.NewEngine()
	dev, err := ssd.New(e, devCfg)
	if err != nil {
		return 0, err
	}
	meta, err := dev.CreateDB(app.Name, app.FeatureBytes(), features)
	if err != nil {
		return 0, err
	}
	layout := meta.Layout

	// Per-page compute time: the features a page carries, at the cores'
	// effective FLOP rate.
	var featPerPage float64
	if fp := layout.FeaturesPerPage(); fp > 0 {
		featPerPage = float64(fp)
	} else {
		featPerPage = 1 / float64(layout.PagesPerFeature())
	}
	flopRate := float64(w.Cores) * w.FreqHz * w.FLOPsPerCyc * w.Efficiency
	perPageSec := featPerPage * float64(app.SCN.FLOPsPerComparison()) / flopRate
	perPage := sim.FromSeconds(perPageSec)

	// The cores are one shared compute resource; pages stream from every
	// channel through DRAM into a work queue.
	cores := sim.NewResource(e, "embedded-cores", 1)
	compute := func(_ flash.PageAddr, next func()) { cores.Hold(perPage, next) }
	var stats ssd.StreamStats
	finished := false
	dev.Walk(ssd.Walk{Layout: layout, Pages: func(ch int) (int64, int64) {
		if windowPages > 0 {
			return 0, min(layout.ChannelPages(ch), windowPages)
		}
		return layout.ChannelSpan(ch)
	}, Hops: []ssd.Hop{dev.HopFlashRead, dev.HopDRAM, compute}, Depth: ssd.StreamWindow,
		Prefix: "wimpy", Span: obs.StageScan}, func(s ssd.StreamStats) { stats, finished = s, true })
	end := e.Run()
	if !finished {
		return 0, fmt.Errorf("baseline: wimpy scan deadlocked")
	}
	totalPages, simPages := layout.TotalPages(), stats.Pages
	elapsed := sim.Duration(end)
	if simPages > 0 && totalPages > simPages {
		elapsed = sim.Duration(float64(elapsed) * float64(totalPages) / float64(simPages))
	}
	return elapsed, nil
}
