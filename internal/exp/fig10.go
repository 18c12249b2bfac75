package exp

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Fig10aRow is one internal-bandwidth point: a system's speedup on MIR as
// the channel count varies, normalized to the traditional system on a
// 32-channel SSD.
type Fig10aRow struct {
	System   string
	Channels int
	Speedup  float64
}

// Figure10a varies the internal SSD bandwidth via the channel count
// (4 → 64) and measures MIR on every system (§6.3, Fig. 10a).
func Figure10a() ([]Fig10aRow, error) {
	app, err := workload.ByName("MIR")
	if err != nil {
		return nil, err
	}
	features := workload.PaperSpec(app).Features
	baseCfg := baseline.DefaultConfig()
	refSec, _ := baseCfg.ScanTime(app, features, app.DefaultBatch)

	var rows []Fig10aRow
	for _, channels := range []int{4, 8, 16, 32, 64} {
		devCfg := ssd.DefaultConfig()
		devCfg.Geometry.Channels = channels
		// The traditional system's external path is PCIe-capped; internal
		// bandwidth changes only matter when it falls below the external
		// interface (4 channels × 800 MB/s = 3.2 GB/s is exactly the cap).
		externalBW := devCfg.Timing.ChannelBandwidth * float64(channels)
		tCfg := baseCfg
		if externalBW < tCfg.SSDBandwidth {
			tCfg.SSDBandwidth = externalBW
		}
		tSec, _ := tCfg.ScanTime(app, features, app.DefaultBatch)
		rows = append(rows, Fig10aRow{System: "Traditional", Channels: channels, Speedup: refSec / tSec})

		for _, level := range accel.Levels() {
			out, err := RunScan(app, accel.SpecForLevel(level, devCfg), devCfg, features)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig10aRow{
				System:   level.String(),
				Channels: channels,
				Speedup:  refSec / out.Seconds,
			})
		}
	}
	return rows, nil
}

// Fig10bRow is one external-bandwidth point: speedup on MIR as SSDs are
// aggregated, normalized to the traditional system with one SSD.
type Fig10bRow struct {
	System  string
	SSDs    int
	Speedup float64
}

// Figure10b varies the number of SSDs (1 → 8). The traditional system
// aggregates read bandwidth but keeps one GPU, so it scales sub-linearly;
// every DeepStore design replicates its accelerators with the devices and
// scales linearly (§6.3, Fig. 10b).
func Figure10b() ([]Fig10bRow, error) {
	app, err := workload.ByName("MIR")
	if err != nil {
		return nil, err
	}
	features := workload.PaperSpec(app).Features
	baseCfg := baseline.DefaultConfig()
	refSec, _ := baseCfg.ScanTime(app, features, app.DefaultBatch)

	devCfg := ssd.DefaultConfig()
	var rows []Fig10bRow
	for _, n := range []int{1, 2, 4, 8} {
		cfg := baseCfg
		cfg.NumSSDs = n
		tSec, _ := cfg.ScanTime(app, features, app.DefaultBatch)
		rows = append(rows, Fig10bRow{System: "Traditional", SSDs: n, Speedup: refSec / tSec})
		for _, level := range accel.Levels() {
			// The database shards across devices; each device scans its
			// share with its own accelerators, in parallel (the cluster
			// model), and the engine merges the per-shard top-K.
			res, err := cluster.ShardedScan(n, app, level, devCfg, features)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig10bRow{
				System:  level.String(),
				SSDs:    n,
				Speedup: refSec / res.Seconds(),
			})
		}
	}
	return rows, nil
}

// figure10aTable tabulates the channel sweep.
func figure10aTable(a []Fig10aRow) report.Table {
	header := []string{"System", "Channels", "Speedup"}
	var out [][]string
	for _, r := range a {
		out = append(out, []string{r.System, fmt.Sprint(r.Channels), F(r.Speedup)})
	}
	return report.Table{Name: "fig10a", Title: "Figure 10a — internal bandwidth scaling (MIR)",
		Caption: "(a) internal bandwidth (channels), MIR", Header: header, Rows: out}
}

// figure10bTable tabulates the SSD sweep.
func figure10bTable(b []Fig10bRow) report.Table {
	header := []string{"System", "SSDs", "Speedup"}
	var out [][]string
	for _, r := range b {
		out = append(out, []string{r.System, fmt.Sprint(r.SSDs), F(r.Speedup)})
	}
	return report.Table{Name: "fig10b", Title: "Figure 10b — multi-SSD scaling (MIR)",
		Caption: "(b) external bandwidth (SSDs), MIR", Header: header, Rows: out}
}
