// Command deepstore-report regenerates the complete evaluation and writes a
// single self-contained Markdown report — every study of the exp registry,
// with the paper's reference values inlined where they exist:
//
//	deepstore-report -out report.md
//	deepstore-report            # writes to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/internal/accel"
	"repro/internal/exp"
)

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := write(w); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Printf("wrote %s\n", *out)
	}
}

func write(w io.Writer) error {
	fmt.Fprintln(w, "# DeepStore — regenerated evaluation")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Every table and figure of the MICRO'19 paper's evaluation, regenerated")
	fmt.Fprintln(w, "live by the simulator. See EXPERIMENTS.md for the paper-vs-measured")
	fmt.Fprintln(w, "discussion and DESIGN.md for the modeling details.")
	fmt.Fprintln(w)

	for _, s := range exp.Studies() {
		res, err := s.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		for _, t := range res.Tables {
			title := s.Title
			if t.Title != "" {
				title = t.Title
			}
			md, err := t.Markdown()
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "## %s\n\n%s\n", title, md); err != nil {
				return err
			}
		}
		if s.Name == "fig8" {
			paperTable4(w)
		}
	}
	return nil
}

// paperTable4 inlines the paper's numbers under the headline table.
func paperTable4(w io.Writer) {
	fmt.Fprintln(w, "Paper Table 4 reference (speedup, energy efficiency):")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| App | SSD | Channel | Chip |")
	fmt.Fprintln(w, "| --- | --- | --- | --- |")
	for _, app := range []string{"ReId", "MIR", "ESTP", "TIR", "TextQA"} {
		ref := exp.PaperTable4[app]
		cell := func(l accel.Level) string {
			v := ref[l]
			if math.IsNaN(v[0]) {
				return "n/s"
			}
			return fmt.Sprintf("%.1fx / %.1fx", v[0], v[1])
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
			app, cell(accel.LevelSSD), cell(accel.LevelChannel), cell(accel.LevelChip))
	}
	fmt.Fprintln(w)
}
