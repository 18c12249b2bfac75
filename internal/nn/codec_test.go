package nn

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

func reidLikeNetwork() *Network {
	return MustNetwork("ReId-like", tensor.Shape{8, 6, 4}, CombineSubtract,
		NewConv("conv1", 8, 6, 4, 4, 3, 3, 1, 1, ActReLU),
		NewConv("conv2", 8, 6, 4, 4, 3, 3, 2, 1, ActReLU),
		NewFC("fc1", 4*3*4, 16, ActReLU),
		NewFC("fc2", 16, 2, ActNone),
	)
}

func TestCodecRoundTrip(t *testing.T) {
	for _, n := range []*Network{tirNetwork(), reidLikeNetwork()} {
		n.InitRandom(99)
		data, err := Marshal(n)
		if err != nil {
			t.Fatalf("%s: marshal: %v", n.Name, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", n.Name, err)
		}
		if got.Name != n.Name {
			t.Errorf("name = %q, want %q", got.Name, n.Name)
		}
		if !slices.Equal(got.FeatureShape, n.FeatureShape) {
			t.Errorf("shape = %v, want %v", got.FeatureShape, n.FeatureShape)
		}
		if got.Combine != n.Combine {
			t.Errorf("combine = %v, want %v", got.Combine, n.Combine)
		}
		if got.FLOPsPerComparison() != n.FLOPsPerComparison() {
			t.Errorf("FLOPs changed across round trip")
		}
		if got.WeightCount() != n.WeightCount() {
			t.Errorf("weights changed across round trip")
		}
		// Forward passes must agree bit-for-bit.
		q := make([]float32, n.FeatureElems())
		d := make([]float32, n.FeatureElems())
		for i := range q {
			q[i] = float32(i%13) / 13
			d[i] = float32(i%11) / 11
		}
		if n.Score(q, d) != got.Score(q, d) {
			t.Errorf("%s: scores differ after round trip", n.Name)
		}
	}
}

func TestCodecRejectsBadMagic(t *testing.T) {
	if _, err := Unmarshal([]byte("XXXX garbage")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	data, err := Marshal(tirNetwork())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 10, len(data) / 2, len(data) - 1} {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Errorf("truncated model (%d bytes) accepted", cut)
		}
	}
}

func TestCodecRejectsBadVersion(t *testing.T) {
	data, err := Marshal(tirNetwork())
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 0xFF // bump version
	if _, err := Unmarshal(data); err == nil {
		t.Error("bad version accepted")
	}
}

func TestCodecRejectsUnknownCombine(t *testing.T) {
	n := MustNetwork("x", tensor.Shape{4}, CombineHadamard, NewFC("fc", 4, 1, ActNone))
	data, err := Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	// The combine byte follows magic(4) + version(2) + name(2+len) + rank(1) + dims(4).
	off := 4 + 2 + 2 + len(n.Name) + 1 + 4
	data[off] = 0x7F
	if _, err := Unmarshal(data); err == nil {
		t.Error("unknown combine op accepted")
	}
}

// TestCodecRejectsUnknownEnums: an activation or element-wise op byte outside
// the enum is a decode error — it used to decode, the activation running as
// identity and the op never writing its output.
func TestCodecRejectsUnknownEnums(t *testing.T) {
	n := MustNetwork("x", tensor.Shape{4}, CombineHadamard,
		NewElementwise("ew", 4, EWScale), NewFC("fc", 4, 1, ActSigmoid))
	data, err := Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	// Layers start after the header up to combine(1) + count(2); the EW record
	// is kind(1) + name(2+2) + width(4) + op(1) + operand(16), and the FC
	// record's activation follows kind(1) + name(2+2) + in(4) + out(4).
	ewOp := 4 + 2 + 2 + len(n.Name) + 1 + 4 + 1 + 2 + 1 + 4 + 4
	fcAct := ewOp + 1 + 16 + 1 + 4 + 4 + 4
	for name, off := range map[string]int{"ew op": ewOp, "activation": fcAct} {
		bad := append([]byte(nil), data...)
		if bad[off] != byte(EWScale) && bad[off] != byte(ActSigmoid) {
			t.Fatalf("%s: offset %d holds %d, not the enum byte", name, off, bad[off])
		}
		bad[off] = 9
		if _, err := Unmarshal(bad); err == nil {
			t.Errorf("unknown %s accepted", name)
		}
	}
}

// FuzzUnmarshal: arbitrary bytes never panic or allocate out of proportion
// to their length, and anything that decodes re-encodes to the bytes it was
// decoded from and scores without panicking.
func FuzzUnmarshal(f *testing.F) {
	for _, n := range []*Network{
		MustNetwork("fc", tensor.Shape{6}, CombineConcat, NewFC("fc1", 12, 3, ActReLU), NewFC("fc2", 3, 1, ActSigmoid)),
		MustNetwork("conv", tensor.Shape{4, 3, 2}, CombineSubtract, NewConv("cv", 4, 3, 2, 2, 3, 3, 1, 1, ActReLU)),
		MustNetwork("ew", tensor.Shape{5}, CombineHadamard, NewElementwise("ew", 5, EWSub), NewFC("fc", 5, 1, ActNone)),
	} {
		n.InitRandom(5)
		data, err := Marshal(n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := Unmarshal(data)
		runtime.ReadMemStats(&after)
		// A decode may hold the layer table (1 MB at the u16 count's maximum),
		// its read buffers and a few copies of what the stream really held.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+16*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		re, err := Marshal(n)
		if err != nil {
			t.Fatalf("decoded network does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatal("decoded network re-encodes to different bytes")
		}
		// The decoder caps widths at what a device could hold, not at what a
		// fuzz worker should allocate per input.
		if n.plan.widest > 1<<12 || n.plan.colLen > 1<<16 {
			return
		}
		v := make([]float32, n.FeatureElems())
		var got [1]float32
		n.Score(v, v)
		n.BatchScorer(1).ScoreBatch(got[:], v, [][]float32{v})
		quantScore(n.Quantize().BatchScorer(1), got[:], PrepareQuantQuery(v), QuantizeDB([][]float32{v}))
		env := NewEnvelope(len(v))
		env.Absorb(v)
		n.BoundScorer().UpperBound(v, &env)
	})
}

func TestWriteReadStream(t *testing.T) {
	n := tirNetwork()
	n.InitRandom(3)
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != n.Name {
		t.Errorf("name = %q", got.Name)
	}
}

func TestCodecSizeMatchesWeights(t *testing.T) {
	n := tirNetwork()
	data, err := Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	// Serialized size must be weight bytes + non-weight float data (biases
	// are already in WeightCount) + small header overhead.
	if int64(len(data)) < n.WeightBytes() {
		t.Errorf("serialized %d bytes < weight bytes %d", len(data), n.WeightBytes())
	}
	if int64(len(data)) > n.WeightBytes()+4096 {
		t.Errorf("serialized %d bytes has too much overhead (weights %d)", len(data), n.WeightBytes())
	}
}
