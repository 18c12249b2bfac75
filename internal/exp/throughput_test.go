package exp

import (
	"math"
	"testing"
)

func TestThroughputEnvelope(t *testing.T) {
	rows, err := Throughput(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // 5 apps x 3 systems
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]ThroughputRow{}
	for _, r := range rows {
		byKey[r.App+"/"+r.System] = r
		// Latency grows with utilization and exceeds service time.
		if !(r.LatencyAt[0.5] < r.LatencyAt[0.8] && r.LatencyAt[0.8] < r.LatencyAt[0.95]) {
			t.Errorf("%s/%s: latency not increasing in load", r.App, r.System)
		}
		if r.LatencyAt[0.5] <= r.ServiceSec {
			t.Errorf("%s/%s: queueing added no latency", r.App, r.System)
		}
	}
	for _, app := range []string{"MIR", "TIR", "TextQA"} {
		trad := byKey[app+"/Traditional"]
		ds := byKey[app+"/DeepStore"]
		qc := byKey[app+"/DeepStore+QC"]
		if ds.SaturationQPS <= trad.SaturationQPS {
			t.Errorf("%s: DeepStore QPS %.3f not above traditional %.3f",
				app, ds.SaturationQPS, trad.SaturationQPS)
		}
		if qc.SaturationQPS <= ds.SaturationQPS {
			t.Errorf("%s: QC did not raise throughput", app)
		}
	}
	checkResult(t, tables(throughputTable(rows)), nil)
}

func TestThroughputValidation(t *testing.T) {
	if _, err := Throughput(1.5); err == nil {
		t.Error("bad miss rate accepted")
	}
}

func TestMD1Sojourn(t *testing.T) {
	// At rho=0.5 with s=1: W = 1 + 0.5/(2*0.5) = 1.5.
	if got := mD1Sojourn(1, 0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("W(0.5) = %v, want 1.5", got)
	}
	if !math.IsNaN(mD1Sojourn(1, 1.0)) || !math.IsNaN(mD1Sojourn(1, 0)) {
		t.Error("degenerate utilizations not NaN")
	}
}
