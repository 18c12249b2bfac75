package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestUnknownExperimentFails: a name the registry does not hold is an error
// that names it and lists the valid ones — not a silently shorter run.
func TestUnknownExperimentFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "table1,fig99"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"fig99"`) || !strings.Contains(err.Error(), "table1,fig2") {
		t.Fatalf("err = %v, want fig99 named beside the valid list", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before rejecting the selection", out.String())
	}
	if _, err := selectStudies(nil, ""); err == nil {
		t.Error("empty selection accepted")
	}
}

// TestSelectionKeepsRegistryOrder: -exp is a set; output order is the
// registry's whatever the flag's.
func TestSelectionKeepsRegistryOrder(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", " table3, table1,table1", "-format", "csv"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	i1, i3 := strings.Index(s, "=== table1 ==="), strings.Index(s, "=== table3 ===")
	if i1 < 0 || i3 < i1 || strings.Count(s, "=== table1 ===") != 1 {
		t.Errorf("sections out of registry order or repeated:\n%s", s)
	}
}

// TestRequestedArtifactWrittenOrError: -json is honoured in every -format.
// Chart mode used to skip the run and write nothing, exiting 0.
func TestRequestedArtifactWrittenOrError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	var out, log bytes.Buffer
	if err := run([]string{"-exp", "fig6,breakdown", "-format", "chart", "-json", dir}, &out, &log); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "=== fig6 ===") || strings.Contains(out.String(), "breakdown") {
		t.Errorf("chart output: %q, want fig6's chart only", out.String())
	}
	for _, name := range []string{"BENCH_metrics.json", "BENCH_trace.json"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", name, err)
		}
		if !strings.Contains(log.String(), name) {
			t.Errorf("stderr %q does not report %s", log.String(), name)
		}
	}
	// A selection with nothing to write is an error, not a silent no-op.
	for _, format := range []string{"chart", "text"} {
		err := run([]string{"-exp", "fig6", "-format", format, "-json", dir}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "artifact") {
			t.Errorf("-format %s: err = %v, want the missing artifact reported", format, err)
		}
	}
	// Likewise a chart run with no chart to draw.
	if err := run([]string{"-exp", "table1", "-format", "chart"}, io.Discard, io.Discard); err == nil {
		t.Error("chartless chart run succeeded")
	}
	if err := run([]string{"-format", "xml"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "chart") {
		t.Errorf("unknown format: %v, want the formats listed with chart", err)
	}
}

// TestProfileFlushedOnError: an error return still stops and closes the CPU
// profile (every os.Exit after StartCPUProfile used to truncate it).
func TestProfileFlushedOnError(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := run([]string{"-cpuprofile", prof, "-exp", "fig99"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("profile not flushed: %v", err)
	}
	// Only one CPU profile can run at a time: starting another proves the
	// first was stopped.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("profile still running after run returned: %v", err)
	}
	pprof.StopCPUProfile()
}
