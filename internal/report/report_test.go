package report

import (
	"strings"
	"testing"
)

func sample() Table {
	return Table{
		Name:   "t",
		Header: []string{"App", "Speedup"},
		Rows:   [][]string{{"MIR", "8.25"}, {"TextQA", "18.54"}},
	}
}

// TestText: columns pad to their widest cell under a dashed rule; the caption
// leads on its own line and the note follows verbatim.
func TestText(t *testing.T) {
	want := "App     Speedup\n" +
		"------  -------\n" +
		"MIR     8.25   \n" +
		"TextQA  18.54  \n"
	if got := sample().Text(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
	framed := sample()
	framed.Caption, framed.Note = "(a) speedups", "\nnote.\n"
	if got := framed.Text(); got != "(a) speedups\n"+want+"\nnote.\n" {
		t.Errorf("framed text = %q", got)
	}
	// A header wider than every cell sets the column width; no rows is fine.
	if got := (Table{Header: []string{"wide header"}}).Text(); got != "wide header\n-----------\n" {
		t.Errorf("empty table text = %q", got)
	}
}

func TestCSV(t *testing.T) {
	s, err := sample().CSV()
	if err != nil {
		t.Fatal(err)
	}
	want := "App,Speedup\nMIR,8.25\nTextQA,18.54\n"
	if s != want {
		t.Errorf("csv = %q, want %q", s, want)
	}
}

func TestCSVQuotesSpecials(t *testing.T) {
	tb := Table{Name: "x", Header: []string{"a"}, Rows: [][]string{{`va,l"ue`}}}
	s, err := tb.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, `"va,l""ue"`) {
		t.Errorf("csv escaping wrong: %q", s)
	}
}

func TestMarkdown(t *testing.T) {
	s, err := sample().Markdown()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s, "| App | Speedup |\n| --- | --- |\n") {
		t.Errorf("markdown header wrong: %q", s)
	}
	if !strings.Contains(s, "| MIR | 8.25 |") {
		t.Errorf("markdown row missing: %q", s)
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tb := Table{Name: "x", Header: []string{"a"}, Rows: [][]string{{"p|q"}}}
	s, err := tb.Markdown()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, `p\|q`) {
		t.Errorf("pipe not escaped: %q", s)
	}
}

func TestValidateRaggedRows(t *testing.T) {
	tb := Table{Name: "bad", Header: []string{"a", "b"}, Rows: [][]string{{"only one"}}}
	if err := tb.Validate(); err == nil {
		t.Error("ragged table validated")
	}
	if _, err := tb.CSV(); err == nil {
		t.Error("ragged CSV rendered")
	}
	if _, err := (Table{Name: "empty"}).Markdown(); err == nil {
		t.Error("headerless markdown rendered")
	}
}

func TestParseFormat(t *testing.T) {
	cases := map[string]Format{"": FormatText, "text": FormatText, "csv": FormatCSV, "md": FormatMarkdown, "markdown": FormatMarkdown, "chart": FormatChart}
	for s, want := range cases {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil || !strings.Contains(err.Error(), "chart") {
		t.Errorf("unknown format: %v, want an error listing every format", err)
	}
}

func TestRender(t *testing.T) {
	tb := sample()
	if text, err := Render(tb, FormatText); err != nil || text != tb.Text() {
		t.Errorf("text render = %q, %v", text, err)
	}
	if s, err := Render(tb, FormatCSV); err != nil || !strings.HasPrefix(s, "App,") {
		t.Errorf("csv render = %q, %v", s, err)
	}
	if s, err := Render(tb, FormatMarkdown); err != nil || !strings.HasPrefix(s, "| App") {
		t.Errorf("md render = %q, %v", s, err)
	}
}

func TestCSVRejectsInvalidTable(t *testing.T) {
	bad := Table{Name: "bad", Header: []string{"a", "b"}, Rows: [][]string{{"1"}}}
	if _, err := bad.CSV(); err == nil {
		t.Error("CSV accepted a ragged table")
	}
	if _, err := (Table{Name: "empty"}).CSV(); err == nil {
		t.Error("CSV accepted a headerless table")
	}
}

func TestMarkdownRejectsInvalidTable(t *testing.T) {
	bad := Table{Name: "bad", Header: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if _, err := bad.Markdown(); err == nil {
		t.Error("Markdown accepted a ragged table")
	}
}

func TestRenderErrors(t *testing.T) {
	tab := Table{Name: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	for _, f := range []Format{FormatChart, Format(99)} {
		if _, err := Render(tab, f); err == nil {
			t.Errorf("format %d rendered a table", int(f))
		}
	}
	bad := Table{Name: "bad", Header: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if _, err := Render(bad, FormatCSV); err == nil {
		t.Error("ragged table rendered as CSV")
	}
	if _, err := Render(bad, FormatMarkdown); err == nil {
		t.Error("ragged table rendered as Markdown")
	}
}
