package exp

import (
	"testing"

	"repro/internal/accel"
)

// TestInterferenceModest validates the §4.5 claim: a channel-level scan and
// a regular host read sharing the device slow each other only modestly —
// the scan saturates the flash channels but the stream is PCIe-bound and
// small relative to internal bandwidth.
func TestInterferenceModest(t *testing.T) {
	res, err := Interference("MIR", accel.LevelChannel, 64_000, 16_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScanAloneSec <= 0 || res.StreamAloneSec <= 0 {
		t.Fatalf("isolated runs empty: %+v", res)
	}
	// Contention can only slow things down.
	if res.ScanSlowdown() < 0.99 {
		t.Errorf("scan sped up under contention: %.3f", res.ScanSlowdown())
	}
	if res.StreamSlowdown() < 0.99 {
		t.Errorf("stream sped up under contention: %.3f", res.StreamSlowdown())
	}
	// "Do not introduce much overhead": both within 2x.
	if res.ScanSlowdown() > 2 {
		t.Errorf("scan slowdown %.2fx under regular I/O, want < 2x", res.ScanSlowdown())
	}
	if res.StreamSlowdown() > 2 {
		t.Errorf("stream slowdown %.2fx under scan, want < 2x", res.StreamSlowdown())
	}
}

func TestInterferenceFormat(t *testing.T) {
	res, err := Interference("TextQA", accel.LevelChannel, 32_000, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tables(interferenceTable([]InterferenceResult{res})), nil)
}

func TestInterferenceUnknownApp(t *testing.T) {
	if _, err := Interference("nope", accel.LevelChannel, 100, 100); err == nil {
		t.Error("unknown app accepted")
	}
}
