package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/studies from the studies' current output")

// goldenTable is what testdata/studies pins of one rendered table: every
// cell except host time (the cells of a column whose header starts with
// "Wall" are blanked), plus the chart of the Result that carried it.
type goldenTable struct {
	Name, Title, Caption, Note string
	Header                     []string
	Rows                       [][]string
	Chart                      string
}

// checkGolden compares each table of res with its file under
// testdata/studies, named after the test and the table.
func checkGolden(t *testing.T, res Result) {
	t.Helper()
	for _, tb := range res.Tables {
		g := goldenTable{Name: tb.Name, Title: tb.Title, Caption: tb.Caption, Note: tb.Note,
			Header: tb.Header, Chart: res.Chart}
		for _, row := range tb.Rows {
			row = append([]string(nil), row...)
			for c, h := range tb.Header {
				if strings.HasPrefix(h, "Wall") {
					row[c] = ""
				}
			}
			g.Rows = append(g.Rows, row)
		}
		got, err := indentJSON(g)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "studies", strings.ReplaceAll(t.Name(), "/", "_")+"."+tb.Name+".json")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v; record it with -update-golden", tb.Name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: output differs from %s:\n%s", tb.Name, path, got)
		}
	}
}

// checkResult is the rendering check every study's own test shares: each
// table is named, well-formed and non-empty in every format, each artifact
// is named, valid JSON, and every table matches its golden. The studies'
// tests call it on the rows they measured at their reduced configurations —
// through the same table functions Study.Run uses — so no study can emit
// ragged data or change an output unnoticed.
func checkResult(t *testing.T, res Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 {
		t.Error("result has no tables")
	}
	for _, tb := range res.Tables {
		if tb.Name == "" {
			t.Errorf("unnamed table %+v", tb.Header)
		}
		if err := tb.Validate(); err != nil {
			t.Errorf("%s: %v", tb.Name, err)
			continue
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.Name)
		}
		if text := tb.Text(); !strings.Contains(text, tb.Header[0]) || !strings.HasPrefix(text, tb.Caption) {
			t.Errorf("%s text: %q", tb.Name, text)
		}
		if _, err := tb.CSV(); err != nil {
			t.Errorf("%s csv: %v", tb.Name, err)
		}
		if _, err := tb.Markdown(); err != nil {
			t.Errorf("%s md: %v", tb.Name, err)
		}
	}
	for _, a := range res.Artifacts {
		if a.Name == "" || !json.Valid(a.Data) {
			t.Errorf("artifact %q is not named JSON (%d bytes)", a.Name, len(a.Data))
		}
	}
	checkGolden(t, res)
}

// TestStudiesRegistry: the registry is what -exp resolves against, so names
// must be unique and usable as flag values and file-name parts, and every
// entry must be complete.
func TestStudiesRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Studies() {
		if s.Name == "" || s.Name == "all" || strings.ContainsAny(s.Name, ", /") {
			t.Errorf("study name %q unusable as an -exp value", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("study %q registered twice", s.Name)
		}
		seen[s.Name] = true
		if s.Title == "" || s.Run == nil {
			t.Errorf("study %q incomplete: title %q, run set %v", s.Name, s.Title, s.Run != nil)
		}
	}
	if len(seen) == 0 {
		t.Fatal("empty registry")
	}
}
