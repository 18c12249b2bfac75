// Command deepstore-sim runs a single in-storage scan configuration and
// prints its timing, bandwidth, and energy in detail:
//
//	deepstore-sim -app MIR -level channel
//	deepstore-sim -app TextQA -level chip -channels 16 -latency 106us
//	deepstore-sim -app TIR -level ssd -db-gb 5
//	deepstore-sim -app TextQA -quantized
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/systolic"
	"repro/internal/workload"
)

func main() {
	appName := flag.String("app", "MIR", "application: ReId, MIR, ESTP, TIR, TextQA")
	levelName := flag.String("level", "channel", "accelerator level: ssd, channel, chip")
	channels := flag.Int("channels", 32, "flash channels")
	chips := flag.Int("chips", 4, "chips per channel")
	latency := flag.Duration("latency", 53*time.Microsecond, "flash array read latency")
	dbGB := flag.Float64("db-gb", 25, "database size in GiB of dense features")
	quantized := flag.Bool("quantized", false, "scan an int8-quantized feature table (DESIGN.md §12)")
	flag.Parse()

	app, err := workload.ByName(*appName)
	if err != nil {
		log.Fatal(err)
	}
	level := accel.Level(-1)
	for _, l := range accel.Levels() {
		if strings.EqualFold(*levelName, l.String()) {
			level = l
		}
	}
	if level < 0 {
		log.Fatalf("unknown level %q (ssd, channel, chip)", *levelName)
	}

	cfg := ssd.DefaultConfig()
	cfg.Geometry.Channels = *channels
	cfg.Geometry.ChipsPerChannel = *chips
	cfg.Timing.ReadLatency = sim.FromSeconds(latency.Seconds())

	// The database size is always stated in dense fp32 GiB so -quantized
	// compares like for like: the same corpus, a quarter of the flash.
	features := int64(*dbGB * float64(1<<30) / float64(app.FeatureBytes()))
	scanSpec := accel.SpecForLevel(level, cfg)
	if *quantized {
		scanSpec.Array.Precision = systolic.INT8
	}
	out, err := exp.RunScan(app, scanSpec, cfg, features)
	if err != nil {
		log.Fatal(err)
	}
	if out.Unsupported {
		fmt.Printf("%s is unsupported at the %s level (see §6.2)\n", app.Name, level)
		return
	}

	baseCfg := baseline.DefaultConfig()
	baseSec, bd := baseCfg.ScanTime(app, features, app.DefaultBatch)

	r := out.Result
	fmt.Printf("%s on %s-level accelerators (%d instances, %s)\n",
		app.Name, level, r.Accels, scanSpec.Array.Precision)
	storedBytes := int64(app.SCN.FeatureElems()) * scanSpec.Array.Precision.ElementBytes()
	fmt.Printf("  database            %d features x %d B stored (%.1f GiB dense fp32)\n",
		features, storedBytes, float64(features*app.FeatureBytes())/float64(1<<30))
	fmt.Printf("  scan time           %.3f s\n", out.Seconds)
	fmt.Printf("  effective bandwidth %.2f GB/s of stored features\n", r.EffectiveBandwidth(storedBytes)/1e9)
	fmt.Printf("  per-feature latency %d accelerator cycles\n", r.PerFeatureCycles)
	fmt.Printf("  weight source       %s (%d streaming rounds)\n", r.WeightSource, r.WeightRounds)
	fmt.Printf("  compute utilization %.0f%% (rest is flash I/O / weight streaming)\n",
		r.ComputeUtilization(scanSpec.Array.FreqHz)*100)
	c, m, f := out.Energy.Fractions()
	fmt.Printf("  energy              %.1f J (compute %.0f%% / memory %.0f%% / flash %.0f%%)\n",
		out.Energy.Total(), c*100, m*100, f*100)
	fmt.Printf("\nGPU+SSD baseline: %.3f s per scan (batch %d: read %.1f ms, memcpy %.1f ms, compute %.1f ms)\n",
		baseSec, app.DefaultBatch, bd.ReadSec*1e3, bd.MemcpySec*1e3, bd.ComputeSec*1e3)
	fmt.Printf("speedup over GPU+SSD: %.2fx\n", baseSec/out.Seconds)
}
