// Command deepstore-dse runs the §4.5 design-space exploration: the Figure 6
// PE-scaling sweep and the per-level accelerator search under power budgets,
// printing the frontier that leads to the Table 3 configurations.
//
//	deepstore-dse                  # fig6 sweep + all three level searches
//	deepstore-dse -level channel   # one level, with the full candidate list
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/accel"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/ssd"
	"repro/internal/systolic"
)

func main() {
	levelName := flag.String("level", "", "print full candidate list for one level (ssd, channel, chip)")
	flag.Parse()

	fmt.Println(exp.Figure6Table(exp.Figure6()).Text())

	cfg := ssd.DefaultConfig()
	levels := accel.Levels()
	if *levelName != "" {
		switch strings.ToLower(*levelName) {
		case "ssd":
			levels = []accel.Level{accel.LevelSSD}
		case "channel":
			levels = []accel.Level{accel.LevelChannel}
		case "chip":
			levels = []accel.Level{accel.LevelChip}
		default:
			log.Fatalf("unknown level %q", *levelName)
		}
	}

	for _, level := range levels {
		spec := accel.SpecForLevel(level, cfg)
		cons := dse.Constraints{
			PowerBudgetW:          spec.PowerBudgetW,
			DRAMBandwidth:         cfg.DRAMBandwidth,
			FlashChannelBandwidth: cfg.Timing.ChannelBandwidth,
			SRAMKind:              spec.SRAMKind,
			ScratchpadBytes:       spec.Array.ScratchpadBytes,
		}
		if level == accel.LevelSSD {
			cons.SRAMKind = energy.ITRSHP
		}
		best, all := dse.Explore(spec.Array.FreqHz, spec.Array.Dataflow, cons)
		fmt.Printf("=== %s level (budget %.2f W, %s dataflow) ===\n", level, spec.PowerBudgetW, spec.Array.Dataflow)
		fmt.Printf("Table 3 design: %dx%d; DSE choice: %v\n", spec.Array.Rows, spec.Array.Cols, best)
		if *levelName != "" {
			sort.Slice(all, func(i, j int) bool { return all[i].MeanCycles < all[j].MeanCycles })
			limit := 20
			if len(all) < limit {
				limit = len(all)
			}
			fmt.Println("fastest candidates:")
			for _, c := range all[:limit] {
				marker := " "
				if !c.Feasible {
					marker = "x"
				}
				fmt.Printf("  %s %v\n", marker, c)
			}
		}
		fmt.Println()
	}
	_ = systolic.OutputStationary
}
