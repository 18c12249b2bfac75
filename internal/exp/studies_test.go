package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

// checkResult is the rendering check every study's own test shares: each
// table is named, well-formed and non-empty in every format, and each
// artifact is named, valid JSON. The studies' tests call it on the rows they
// measured at their reduced configurations — through the same table
// functions Study.Run uses — so no study can emit ragged data.
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
