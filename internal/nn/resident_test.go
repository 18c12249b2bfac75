package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// residentFuzzNet builds a small valid network for the resident fuzzer. The
// combine is seed%3 and the first layer's family seed/3%4 — an FC with one
// output, an FC with four or more, an element-wise layer or a convolution —
// so seeds 0–11 cover every pairing; the depth (1–3), the later layers,
// widths, activations and weights are drawn from the seed.
func residentFuzzNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	combine := []CombineOp{CombineHadamard, CombineSubtract, CombineConcat}[uint64(seed)%3]
	act := func() Activation { return []Activation{ActNone, ActReLU, ActSigmoid}[rng.Intn(3)] }
	kind := uint64(seed) / 3 % 4
	fshape := tensor.Shape{1 + rng.Intn(70)}
	var first Layer
	if kind == 3 {
		h, w, c := 3+rng.Intn(3), 3+rng.Intn(3), 1+rng.Intn(3)
		fshape = tensor.Shape{h, w, c}
		if combine == CombineConcat {
			h *= 2 // [qfv ‖ dfv] read as twice the rows
		}
		first = NewConv("conv1", h, w, c, 1+rng.Intn(4), 3, 3, 1+rng.Intn(2), rng.Intn(2), act())
	}
	in := fshape.Elems()
	if combine == CombineConcat {
		in *= 2
	}
	switch kind {
	case 0:
		first = NewFC("fc1", in, 1, act())
	case 1:
		first = NewFC("fc1", in, 4+rng.Intn(6), act())
	case 2:
		first = NewElementwise("ew1", in, EWOp(rng.Intn(4)))
	}
	layers := []Layer{first}
	shape := first.OutputShape(tensor.Shape{in})
	for d := rng.Intn(3); d > 0; d-- {
		if rng.Intn(3) == 0 {
			layers = append(layers, NewElementwise("ew", shape.Elems(), EWOp(rng.Intn(4))))
		} else {
			layers = append(layers, NewFC("fc", shape.Elems(), 1+rng.Intn(6), act()))
		}
		shape = layers[len(layers)-1].OutputShape(shape)
	}
	n := MustNetwork(fmt.Sprintf("resident-fuzz-%d", seed), fshape, combine, layers...)
	n.InitRandom(seed)
	return n
}

// FuzzResidentMatchesScoreBatch: over random networks — every combine, a
// first layer that takes the lanes kernel (an FC behind a Hadamard or
// subtract combine, with one output or cut to its score as the last layer)
// or unpacks (an FC of four or more outputs feeding another layer, an
// element-wise layer, a convolution, any concat network), one to three
// layers deep — and random
// sequences of Put that fill, overwrite and skip slots, Activate of every
// Logits output over any prefix of the slots is bit-identical to ScoreBatch
// over the same vectors in slot order, slots never Put being zero vectors.
func FuzzResidentMatchesScoreBatch(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, []byte{0, 1, 2, 3, 64, 65, 7, 0, 129, 200, 17, 16, 15, 66})
	}
	f.Add(int64(1), []byte{255, 254, 0, 0, 0, 130})
	f.Fuzz(func(t *testing.T, seed int64, puts []byte) {
		net := residentFuzzNet(seed)
		rng := rand.New(rand.NewSource(seed))
		fe := net.FeatureElems()
		capacity := 1 + rng.Intn(140)
		r := net.Resident(capacity)
		bs := net.BatchScorer(capacity)
		zero := make([]float32, fe)
		slots := make([][]float32, capacity)
		for i := range slots {
			slots[i] = zero
		}
		check := func(m int) {
			want, got := make([]float32, m), make([]float32, m)
			q := randVec(rng, fe)
			bs.ScoreBatch(want, q, slots[:m])
			what := fmt.Sprintf("%s, %d of %d slots", net, m, capacity)
			r.Logits(got, q)
			for i, l := range got {
				got[i] = net.Activate(l)
			}
			sameScoreBits(t, what+", Activate∘Logits", got, want)
		}
		if len(puts) > 300 {
			puts = puts[:300]
		}
		for i, b := range puts {
			slot := int(b) % capacity
			slots[slot] = randVec(rng, fe)
			r.Put(slot, slots[slot])
			if i%5 == 4 {
				check(1 + rng.Intn(capacity))
			}
		}
		check(capacity)
	})
}

// TestResidentMisuse: a vector or query of the wrong width, a slot outside
// the capacity and more logits than the capacity all panic, and scoring no
// slots is a no-op that checks nothing.
func TestResidentMisuse(t *testing.T) {
	net := qcnNeuronNet()
	good := make([]float32, net.FeatureElems())
	for name, call := range map[string]func(){
		"zero capacity":   func() { net.Resident(0) },
		"short dfv":       func() { net.Resident(4).Put(0, good[:3]) },
		"negative slot":   func() { net.Resident(4).Put(-1, good) },
		"slot past cap":   func() { net.Resident(4).Put(4, good) },
		"short qfv":       func() { net.Resident(4).Logits(make([]float32, 1), good[1:]) },
		"logits past cap": func() { net.Resident(4).Logits(make([]float32, 5), good) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	net.Resident(4).Logits(nil, nil)
}

// TestResidentNarrowHasNoComb: a narrow network's Resident runs its first
// layer from its own store, so its executor keeps no combined-row scratch;
// any other network's keeps one group of combined rows.
func TestResidentNarrowHasNoComb(t *testing.T) {
	narrow := qcnNeuronNet()
	if narrow.plan.lanesOut == 0 {
		t.Fatal("the one-neuron QCN is not narrow")
	}
	if r := narrow.Resident(1024); cap(r.exec.comb) != 0 {
		t.Errorf("narrow resident holds a %d-element comb", cap(r.exec.comb))
	}
	wide := residentFuzzNet(2) // Concat into a one-output FC: not narrow
	if wide.plan.lanesOut != 0 {
		t.Fatal("a Concat network is narrow")
	}
	if r := wide.Resident(8); len(r.exec.comb) != residentGroup*wide.plan.combElems {
		t.Errorf("resident of a wide network holds a %d-element comb, want %d",
			len(r.exec.comb), residentGroup*wide.plan.combElems)
	}
}
