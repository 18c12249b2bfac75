// Command deepstore-bench regenerates the paper's tables and figures from
// the simulator. Run with -exp all (default) or a comma-separated subset,
// pick an output format for downstream plotting, and collect the studies'
// machine-readable artifacts in one directory:
//
//	deepstore-bench -exp table1,fig8
//	deepstore-bench -exp fig13 -format csv
//	deepstore-bench -exp mq,serve,breakdown -json .   # ./BENCH_<name>.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/exp"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
		os.Exit(1)
	}
}

// names lists the registry's study ids for help and error text.
func names(studies []exp.Study) string {
	ids := make([]string, len(studies))
	for i, s := range studies {
		ids[i] = s.Name
	}
	return strings.Join(ids, ",")
}

// selectStudies resolves a comma-separated -exp value against the registry,
// keeping the registry's order.
func selectStudies(studies []exp.Study, list string) ([]exp.Study, error) {
	if list == "all" {
		return studies, nil
	}
	want := map[string]bool{}
	for _, s := range studies {
		want[s.Name] = false
	}
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if _, known := want[n]; !known {
			return nil, fmt.Errorf("unknown experiment %q (valid: all,%s)", n, names(studies))
		}
		want[n] = true
	}
	var picked []exp.Study
	for _, s := range studies {
		if want[s.Name] {
			picked = append(picked, s)
		}
	}
	return picked, nil
}

// run is main with its exits turned into returns, so the deferred profile
// writers always flush.
func run(args []string, stdout, stderr io.Writer) error {
	studies := exp.Studies()
	fs := flag.NewFlagSet("deepstore-bench", flag.ExitOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "experiments to run (comma separated): "+names(studies))
	formatFlag := fs.String("format", "text", "output format: text, csv, markdown, chart")
	jsonDir := fs.String("json", "", "write the selected experiments' artifacts to `DIR`/BENCH_<name>.json; an error if none of them has one")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (after the experiments) to this file")
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "deepstore-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "deepstore-bench: %v\n", err)
			}
		}()
	}

	format, err := report.ParseFormat(*formatFlag)
	if err != nil {
		return err
	}
	selected, err := selectStudies(studies, *expFlag)
	if err != nil {
		return err
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return err
		}
	}

	charts, written := 0, 0
	for _, s := range selected {
		res, err := s.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		switch format {
		case report.FormatChart:
			if res.Chart != "" { // only the sweep/comparison figures have charts
				fmt.Fprintf(stdout, "=== %s ===\n%s\n", s.Name, res.Chart)
				charts++
			}
		case report.FormatText:
			texts := make([]string, len(res.Tables))
			for i, t := range res.Tables {
				texts[i] = t.Text()
			}
			fmt.Fprintf(stdout, "=== %s ===\n%s\n", s.Name, strings.Join(texts, "\n"))
		default:
			for _, t := range res.Tables {
				out, err := report.Render(t, format)
				if err != nil {
					return fmt.Errorf("%s: %w", t.Name, err)
				}
				fmt.Fprintf(stdout, "=== %s ===\n%s\n", t.Name, out)
			}
		}
		if *jsonDir == "" {
			continue
		}
		for _, a := range res.Artifacts {
			path := filepath.Join(*jsonDir, "BENCH_"+a.Name+".json")
			if err := os.WriteFile(path, a.Data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "deepstore-bench: wrote %s\n", path)
			written++
		}
	}
	if *jsonDir != "" && written == 0 {
		return fmt.Errorf("-json %s: no experiment in %q has an artifact", *jsonDir, *expFlag)
	}
	if format == report.FormatChart && charts == 0 && written == 0 {
		return fmt.Errorf("no experiment in %q has a chart", *expFlag)
	}
	return nil
}
