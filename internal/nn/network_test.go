package nn

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// tirNetwork builds the TIR SCN exactly as described in §3: a vector dot
// product (Hadamard front end) and three FC layers 512x512, 512x256, 256x2.
func tirNetwork() *Network {
	return MustNetwork("TIR", tensor.Shape{512}, CombineHadamard,
		NewFC("fc1", 512, 512, ActReLU),
		NewFC("fc2", 512, 256, ActReLU),
		NewFC("fc3", 256, 2, ActNone),
	)
}

func TestNetworkTIRCharacteristics(t *testing.T) {
	n := tirNetwork()
	// Paper Table 1: TIR has 0.79M FLOPs, 1.5MB weights, 0 conv, 3 FC, 1 EW.
	flops := n.FLOPsPerComparison()
	want := int64(512 + 2*(512*512+512*256+256*2))
	if flops != want {
		t.Errorf("TIR FLOPs = %d, want %d", flops, want)
	}
	if flops < 750_000 || flops > 830_000 {
		t.Errorf("TIR FLOPs = %d, outside Table 1 band ~0.79M", flops)
	}
	wb := n.WeightBytes()
	if wb < 1_400_000 || wb > 1_700_000 {
		t.Errorf("TIR weights = %d bytes, outside Table 1 band ~1.5MB", wb)
	}
	conv, fc, ew := n.CountKinds()
	if conv != 0 || fc != 3 || ew != 1 {
		t.Errorf("TIR layer counts = (%d conv, %d fc, %d ew), want (0, 3, 1)", conv, fc, ew)
	}
	if n.FeatureBytes() != 2048 {
		t.Errorf("TIR feature bytes = %d, want 2048", n.FeatureBytes())
	}
}

func TestNetworkScoreRuns(t *testing.T) {
	n := tirNetwork()
	n.InitRandom(1)
	q := make([]float32, 512)
	d := make([]float32, 512)
	for i := range q {
		q[i] = float32(i%7) / 7
		d[i] = float32(i%5) / 5
	}
	s := n.Score(q, d)
	if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) {
		t.Errorf("score = %v", s)
	}
	// Deterministic across runs.
	if s2 := n.Score(q, d); s2 != s {
		t.Errorf("score not deterministic: %v vs %v", s, s2)
	}
}

func TestNetworkCombineConcat(t *testing.T) {
	n := MustNetwork("concat", tensor.Shape{4}, CombineConcat,
		NewFC("fc", 8, 1, ActNone))
	fc := n.Layers[0].(*FC)
	// Weight layout: first 4 weights see QFV, last 4 see DFV.
	copy(fc.W, []float32{1, 1, 1, 1, 0, 0, 0, 0})
	q := []float32{1, 2, 3, 4}
	d := []float32{100, 100, 100, 100}
	if got := n.Score(q, d); got != 10 {
		t.Errorf("concat score = %v, want 10 (sum of qfv only)", got)
	}
	// Concat is not an EW layer and costs no FLOPs.
	if _, _, ew := n.CountKinds(); ew != 0 {
		t.Error("concat counted as elementwise")
	}
	if got := n.FLOPsPerComparison(); got != 2*8*1 {
		t.Errorf("concat FLOPs = %d, want 16", got)
	}
}

func TestNetworkCombineSubtract(t *testing.T) {
	n := MustNetwork("sub", tensor.Shape{3}, CombineSubtract,
		NewFC("fc", 3, 1, ActNone))
	fc := n.Layers[0].(*FC)
	copy(fc.W, []float32{1, 1, 1})
	got := n.Score([]float32{5, 5, 5}, []float32{1, 2, 3})
	if got != 9 {
		t.Errorf("subtract score = %v, want 9", got)
	}
}

func TestNetworkShapeMismatchError(t *testing.T) {
	_, err := NewNetwork("bad", tensor.Shape{4}, CombineHadamard,
		NewFC("fc", 5, 1, ActNone)) // 5 != 4
	if err == nil {
		t.Error("mismatched network did not error")
	}
}

func TestNetworkLayerPlan(t *testing.T) {
	n := tirNetwork()
	plan := n.LayerPlan()
	if len(plan) != 4 { // combine + 3 FC
		t.Fatalf("plan has %d entries, want 4", len(plan))
	}
	if plan[0].Kind != KindElementwise || plan[0].FLOPs != 512 {
		t.Errorf("plan[0] = %+v, want EW combine of 512", plan[0])
	}
	if plan[1].Kind != KindFC || !slices.Equal(plan[1].In, tensor.Shape{512}) || !slices.Equal(plan[1].Out, tensor.Shape{512}) {
		t.Errorf("plan[1] = %+v", plan[1])
	}
	if !slices.Equal(plan[3].Out, tensor.Shape{2}) {
		t.Errorf("plan[3].Out = %v, want [2]", plan[3].Out)
	}
	var total int64
	for _, d := range plan {
		total += d.FLOPs
	}
	if total != n.FLOPsPerComparison() {
		t.Errorf("plan FLOPs %d != network FLOPs %d", total, n.FLOPsPerComparison())
	}
}

func TestNetworkLayerPlanConcatInput(t *testing.T) {
	n := MustNetwork("c", tensor.Shape{4}, CombineConcat, NewFC("fc", 8, 2, ActNone))
	plan := n.LayerPlan()
	if len(plan) != 1 {
		t.Fatalf("plan has %d entries, want 1", len(plan))
	}
	if !slices.Equal(plan[0].In, tensor.Shape{8}) {
		t.Errorf("plan input shape = %v, want [8]", plan[0].In)
	}
}

// Property: Hadamard combine is symmetric — Score(q,d) == Score(d,q).
func TestHadamardSymmetry(t *testing.T) {
	n := MustNetwork("sym", tensor.Shape{8}, CombineHadamard,
		NewFC("fc", 8, 1, ActNone))
	n.InitRandom(7)
	f := func(seed int64) bool {
		q := make([]float32, 8)
		d := make([]float32, 8)
		s := seed
		for i := range q {
			s = s*6364136223846793005 + 1442695040888963407
			q[i] = float32(s%1000) / 1000
			s = s*6364136223846793005 + 1442695040888963407
			d[i] = float32(s%1000) / 1000
		}
		return n.Score(q, d) == n.Score(d, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNetworkString(t *testing.T) {
	s := tirNetwork().String()
	if s == "" || len(s) < 10 {
		t.Errorf("String() = %q", s)
	}
}
