package exp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/systolic"
)

// TestAblationDataflowValidatesOS: the §4.5 choice of output-stationary
// dataflow at the channel level must win against weight-stationary for
// every application.
func TestAblationDataflowValidatesOS(t *testing.T) {
	rows, err := AblationDataflow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Chosen != systolic.OutputStationary {
			t.Errorf("%s: chosen dataflow = %v", r.App, r.Chosen)
		}
		if math.IsNaN(r.Penalty) {
			continue
		}
		if r.Penalty <= 1.0 {
			t.Errorf("%s: WS not slower than OS at channel level (penalty %.2f)", r.App, r.Penalty)
		}
	}
}

// TestAblationPrecisionMonotone: narrower precision never slows a scan and
// never costs more energy — and helps compute-bound apps (ReId) the most —
// at every scan window. Element width bounds both the bytes read and the
// MAC throughput, so no precision beats fp32 by more than (4 / element
// bytes)².
func TestAblationPrecisionMonotone(t *testing.T) {
	for _, window := range []int64{256, 1000, 3000} {
		rows, err := ablationPrecision(window)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if bound := math.Pow(4/float64(r.Precision.ElementBytes()), 2); r.SpeedupVsFP32 > bound {
				t.Errorf("window %d: %s %v speedup over fp32 %.2fx, above the physical %.0fx",
					window, r.App, r.Precision, r.SpeedupVsFP32, bound)
			}
		}
		checkPrecisionMonotone(t, rows)
	}
}

func checkPrecisionMonotone(t *testing.T, rows []AblationPrecisionRow) {
	t.Helper()
	byApp := map[string][]AblationPrecisionRow{}
	for _, r := range rows {
		byApp[r.App] = append(byApp[r.App], r)
	}
	for app, rs := range byApp {
		if len(rs) != 3 {
			t.Fatalf("%s: %d precision rows", app, len(rs))
		}
		for i := 1; i < len(rs); i++ {
			if math.IsNaN(rs[i].Seconds) {
				continue
			}
			if rs[i].Seconds > rs[i-1].Seconds*1.02 {
				t.Errorf("%s: %v slower than %v (%.3f vs %.3f s)",
					app, rs[i].Precision, rs[i-1].Precision, rs[i].Seconds, rs[i-1].Seconds)
			}
			if rs[i].EnergyJ > rs[i-1].EnergyJ*1.02 {
				t.Errorf("%s: %v costs more energy than %v", app, rs[i].Precision, rs[i-1].Precision)
			}
		}
	}
	// INT8 shrinks flash traffic 4x, so even I/O-bound apps gain.
	for app, rs := range byApp {
		int8Speedup := rs[2].SpeedupVsFP32
		if !math.IsNaN(int8Speedup) && int8Speedup < 1.1 {
			t.Errorf("%s: INT8 speedup only %.2fx", app, int8Speedup)
		}
	}
}

// TestAblationL2ValidatesSharing: removing the shared L2 must never speed a
// scan up, and must demote the L2-served models (TIR, MIR) to DRAM.
func TestAblationL2ValidatesSharing(t *testing.T) {
	rows, err := AblationL2()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]AblationL2Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.Penalty < 0.98 {
			t.Errorf("%s: scan faster without L2 (%.2fx)", r.App, r.Penalty)
		}
	}
	for _, name := range []string{"TIR", "MIR"} {
		r := byApp[name]
		if r.WithL2Source.String() != "L2" {
			t.Errorf("%s: with-L2 source = %v", name, r.WithL2Source)
		}
		if r.NoL2Source.String() != "DRAM" {
			t.Errorf("%s: no-L2 source = %v", name, r.NoL2Source)
		}
	}
	// TextQA is L1-resident and must be unaffected.
	if r := byApp["TextQA"]; r.Penalty > 1.05 {
		t.Errorf("TextQA penalized by L2 removal (%.2fx) despite L1 residency", r.Penalty)
	}
}

func TestFormatAblations(t *testing.T) {
	df, err := AblationDataflow()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := AblationPrecision()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := AblationL2()
	if err != nil {
		t.Fatal(err)
	}
	res := tables(ablationDataflowTable(df), ablationPrecisionTable(pr), ablationL2Table(l2))
	checkResult(t, res, nil)
	for i, tb := range res.Tables {
		if want := "(" + string(rune('a'+i)) + ") "; !strings.HasPrefix(tb.Caption, want) || tb.Title == "" {
			t.Errorf("%s: caption %q, title %q", tb.Name, tb.Caption, tb.Title)
		}
	}
}
