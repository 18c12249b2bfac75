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

	"repro/internal/exp"
)

func main() {
	levelName := flag.String("level", "", "print full candidate list for one level (ssd, channel, chip)")
	flag.Parse()

	fmt.Println(exp.Figure6Table(exp.Figure6()).Text())

	matched := false
	for _, r := range exp.Table3() {
		if *levelName != "" && !strings.EqualFold(*levelName, r.Level.String()) {
			continue
		}
		matched = true
		all := r.Candidates
		fmt.Printf("=== %s level (budget %.2f W, %s dataflow) ===\n", r.Level, r.PaperPower, r.Paper.Dataflow)
		fmt.Printf("Table 3 design: %dx%d; DSE choice: %v\n", r.Paper.Rows, r.Paper.Cols, r.DSE)
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
	if !matched {
		log.Fatalf("unknown level %q", *levelName)
	}
}
