// Package report renders experiment results as aligned plain text and in
// machine-friendly formats (CSV, Markdown), so regenerated figures can feed
// plotting scripts directly.
package report

import (
	"encoding/csv"
	"fmt"
	"strings"
)

// Table is a rendered experiment: a header row plus data rows.
type Table struct {
	Name string
	// Title heads the table in a document; a study with a single table
	// leaves it empty and lends its own.
	Title  string
	Header []string
	Rows   [][]string
	// Caption and Note frame the plain-text rendering only: Caption is a
	// line printed above the table, Note is appended verbatim below it.
	Caption string
	Note    string
}

// Validate reports structural problems (ragged rows).
func (t Table) Validate() error {
	if len(t.Header) == 0 {
		return fmt.Errorf("report: table %q has no header", t.Name)
	}
	for i, r := range t.Rows {
		if len(r) != len(t.Header) {
			return fmt.Errorf("report: table %q row %d has %d cells, want %d",
				t.Name, i, len(r), len(t.Header))
		}
	}
	return nil
}

// Text renders the table as aligned plain text between its caption and note.
func (t Table) Text() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Caption != "" {
		sb.WriteString(t.Caption + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	sb.WriteString(t.Note)
	return sb.String()
}

// CSV renders the table as RFC-4180 CSV.
func (t Table) CSV() (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if err := w.Write(t.Header); err != nil {
		return "", err
	}
	if err := w.WriteAll(t.Rows); err != nil {
		return "", err
	}
	w.Flush()
	return sb.String(), w.Error()
}

// Markdown renders the table as a GitHub-flavored Markdown table.
func (t Table) Markdown() (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		sb.WriteString("|")
		for _, c := range cells {
			sb.WriteString(" ")
			sb.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			sb.WriteString(" |")
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String(), nil
}

// Format selects an output rendering.
type Format int

// Supported formats. FormatChart selects a study's terminal chart, which is
// not a rendering of a Table: Render rejects it.
const (
	FormatText Format = iota
	FormatCSV
	FormatMarkdown
	FormatChart
)

// ParseFormat maps a flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "text", "txt":
		return FormatText, nil
	case "csv":
		return FormatCSV, nil
	case "md", "markdown":
		return FormatMarkdown, nil
	case "chart":
		return FormatChart, nil
	default:
		return 0, fmt.Errorf("report: unknown format %q (text, csv, markdown, chart)", s)
	}
}

// Render produces the table in the chosen format.
func Render(t Table, f Format) (string, error) {
	switch f {
	case FormatText:
		return t.Text(), nil
	case FormatCSV:
		return t.CSV()
	case FormatMarkdown:
		return t.Markdown()
	default:
		return "", fmt.Errorf("report: format %d does not render a table", int(f))
	}
}
