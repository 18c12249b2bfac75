// Command deepstore-qc explores the similarity-based query cache (§4.6/§6.5)
// over synthetic query traces:
//
//	deepstore-qc -dist zipfian -alpha 0.7 -entries 1000 -threshold 0.10
//	deepstore-qc -dist uniform -queries 50000 -universe 5000
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/exp"
	"repro/internal/workload"
)

func main() {
	distName := flag.String("dist", "zipfian", "query distribution: uniform or zipfian")
	alpha := flag.Float64("alpha", 0.7, "zipfian skew")
	entries := flag.Int("entries", 1000, "query cache entries")
	threshold := flag.Float64("threshold", 0.10, "error threshold (0..1)")
	queries := flag.Int("queries", 20000, "trace length")
	universe := flag.Int64("universe", 2000, "distinct query intents")
	sweep := flag.Bool("sweep", false, "sweep the error threshold 0-20% (Fig. 13 style) instead of one point")
	flag.Parse()

	var dist workload.Distribution
	switch strings.ToLower(*distName) {
	case "uniform":
		dist = workload.Uniform
	case "zipfian", "zipf":
		dist = workload.Zipfian
	default:
		log.Fatalf("unknown distribution %q", *distName)
	}

	cfg := exp.DefaultQCStudy()
	cfg.TraceLen = *queries
	cfg.Universe = *universe
	cfg.CacheEntries = *entries

	if *sweep {
		rows, err := exp.Figure13(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(exp.Figure13Table(rows).Text())
		return
	}

	miss := exp.SimulateQCTrace(cfg, dist, *alpha, *threshold)
	fmt.Printf("trace: %d queries over %d intents (%s", cfg.TraceLen, cfg.Universe, dist)
	if dist == workload.Zipfian {
		fmt.Printf(", alpha %.2f", *alpha)
	}
	fmt.Printf("), cache %d entries, threshold %.0f%%\n", cfg.CacheEntries, *threshold*100)
	fmt.Printf("steady-state miss rate: %.1f%%\n", miss*100)

	speeds, err := exp.QCSpeedups(cfg, miss)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspeedups over the plain GPU+SSD system (TIR, %.0fM-feature database):\n",
		float64(cfg.Features)/1e6)
	fmt.Printf("  Traditional + QCache: %.2fx\n", speeds.TraditionalQC)
	fmt.Printf("  DeepStore:            %.2fx\n", speeds.DeepStore)
	fmt.Printf("  DeepStore + QCache:   %.2fx\n", speeds.DeepStoreQC)
}
