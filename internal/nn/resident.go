package nn

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// residentGroup is how many slots one forward pass of a Resident scores:
// the four 16-slot blocks of one fused lanes-kernel call.
const residentGroup = 4 * tensor.LaneRows

// Resident is a network's store of feature vectors by slot: the query
// cache's resident queries (§4.6), which the paper keeps in SSD DRAM for the
// channel accelerators to stream. Put writes a vector once, into the layout
// tensor.GemmLanes reads (blocks of 16 slots, each block k-major), so
// Logits compares a query against every slot with no gather, no combined
// rows and no pack. Only the stored vectors are resident: the weights are
// read in place on every call, so a network rewritten after its Resident was
// built is the network the Resident runs.
//
// A narrow network (DESIGN.md "Narrow first layers") runs its first layer
// through GemmLanes straight from the store, as BatchScorer does from its
// packed chunk: the combine and the dot products in one pass. Any other
// network unpacks each slot into a combined row. Either way the rest of the
// stack is the batched executor's forward pass, 64 slots at a time, so every
// score is bit-identical to BatchScorer.ScoreBatch over the same vectors.
//
// The store grows with the highest slot used, 64 slots at a time, up to its
// capacity. A Resident is NOT safe for concurrent use.
type Resident struct {
	exec     executor
	capacity int
	// lanes holds slot s's element p at lane(s)[p·16].
	lanes []float32
	// dfv is one unpacked vector, for the networks that are not narrow.
	dfv []float32
}

// Resident returns an empty store of up to capacity feature vectors.
func (n *Network) Resident(capacity int) *Resident {
	if capacity < 1 {
		panic(fmt.Sprintf("nn: resident store for %q needs capacity >= 1, got %d", n.Name, capacity))
	}
	narrow := n.plan.lanesOut > 0
	r := &Resident{exec: newExecutor(n, nil, residentGroup, !narrow), capacity: capacity}
	if !narrow {
		r.dfv = make([]float32, n.FeatureElems())
	}
	return r
}

// Put stores dfv as slot's vector, replacing what the slot held. It panics
// unless dfv has the network's feature length and slot is in [0, capacity).
func (r *Resident) Put(slot int, dfv []float32) {
	r.exec.checkLen("dfv", slot, len(dfv))
	if slot < 0 || slot >= r.capacity {
		panic(fmt.Sprintf("nn: slot %d outside resident capacity %d", slot, r.capacity))
	}
	r.grow(slot + 1)
	lane := r.lane(slot)
	for p, v := range dfv {
		lane[p*tensor.LaneRows] = v
	}
}

// Logits writes logits[s], the network's output for (qfv, slot s's vector)
// before the last layer's activation, for every slot s in [0, len(logits));
// a slot never Put holds the zero vector. The network's Activate maps a
// logit to its score and never decreases, so the largest logit has the
// largest score. It panics unless qfv has the feature length and
// len(logits) is at most the capacity. Steady-state calls allocate nothing.
func (r *Resident) Logits(logits, qfv []float32) {
	m := len(logits)
	if m > r.capacity {
		panic(fmt.Sprintf("nn: %d logits for a resident capacity of %d", m, r.capacity))
	}
	if m == 0 {
		return
	}
	e := &r.exec
	e.checkLen("qfv", 0, len(qfv))
	r.grow(m)
	fe, ce := e.fe, e.net.plan.combElems
	for g0 := 0; g0 < m; g0 += residentGroup {
		rows := min(m-g0, residentGroup)
		var out []float32
		var oe int
		if e.net.plan.lanesOut > 0 {
			out, oe = e.forwardLanes(qfv, r.lanes[g0*fe:], rows)
		} else {
			for i := 0; i < rows; i++ {
				lane := r.lane(g0 + i)
				for p := range r.dfv {
					r.dfv[p] = lane[p*tensor.LaneRows]
				}
				e.net.combine(e.comb[i*ce:(i+1)*ce], qfv, r.dfv)
			}
			out, oe = e.forward(0, e.comb, ce, rows)
		}
		for i := 0; i < rows; i++ {
			logits[g0+i] = out[i*oe]
		}
	}
}

// lane returns the lanes from slot's element 0 on; element p is at p·16.
func (r *Resident) lane(slot int) []float32 {
	return r.lanes[slot/tensor.LaneRows*tensor.LaneRows*r.exec.fe+slot%tensor.LaneRows:]
}

// grow makes the lanes cover whole 64-slot groups up to slots; the lanes
// are never truncated, so new slots hold zeros.
func (r *Resident) grow(slots int) {
	if need := (slots + residentGroup - 1) / residentGroup * residentGroup * r.exec.fe; need > len(r.lanes) {
		r.lanes = slices.Grow(r.lanes, need-len(r.lanes))[:need]
	}
}
