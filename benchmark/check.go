package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	deepstore "repro"
)

// opOut is what one closed-loop op handed back: the query vectors it
// submitted and one result per query, in submission order.
type opOut struct {
	index    int
	rootSpan int64 // the op's root span in a traced loop, else 0
	queries  [][]float32
	results  []*deepstore.QueryResult
	// batch marks results that ran as one shared batch (QueryMulti): the
	// batch costs its slowest query of simulated time, not the sum.
	batch bool
	// events is the number of simulation events the op executed, for
	// workloads that can read it without disturbing the op (else 0).
	events uint64
}

// simAcc folds the simulated-clock side of the first simOps ops. The fold is
// over a fixed op count rather than the timed window, so for one seed every
// figure here, and the digest, repeats exactly however fast the host is.
type simAcc struct {
	ops, queries   int
	latencyPs      int64      // sum of every query's simulated latency
	makespanPs     int64      // sum over ops of the slowest query in the op
	energyJ        [3]float64 // compute, memory, flash
	energyTotalJ   float64
	scanned        int64
	skipped        int64
	stripesChecked int64
	rerankCands    int64
	hits           int
	events         uint64
	stagePs        map[string]int64
	digest         hash.Hash64
}

func newSimAcc() *simAcc {
	return &simAcc{stagePs: map[string]int64{}, digest: fnv.New64a()}
}

func (a *simAcc) hashU64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	a.digest.Write(b[:])
}

// fold adds one op. rerankPerMiss is the candidate count the workload's
// two-pass mode reranks on every miss (0 when it has no exact rerank).
func (a *simAcc) fold(o opOut, rerankPerMiss int) {
	a.ops++
	a.events += o.events
	var slowest, total int64
	for _, r := range o.results {
		a.queries++
		lat := int64(r.Latency)
		a.latencyPs += lat
		slowest, total = max(slowest, lat), total+lat
		a.energyJ[0] += r.Energy.ComputeJ
		a.energyJ[1] += r.Energy.MemoryJ
		a.energyJ[2] += r.Energy.FlashJ
		a.energyTotalJ += r.Energy.Total()
		a.scanned += r.FeaturesScanned
		a.skipped += r.Prune.FeaturesSkipped
		a.stripesChecked += r.Prune.StripesChecked
		if r.CacheHit {
			a.hits++
			a.rerankCands += r.FeaturesScanned
		} else {
			a.rerankCands += int64(rerankPerMiss)
		}
		a.hashU64(uint64(lat))
		for _, s := range r.Stages {
			a.stagePs[s.Name] += int64(s.Dur)
			a.digest.Write([]byte(s.Name))
			a.hashU64(uint64(s.Dur))
		}
		a.hashU64(math.Float64bits(r.Energy.Total()))
		for _, e := range r.TopK {
			a.hashU64(uint64(e.FeatureID))
			a.hashU64(uint64(math.Float32bits(e.Score)))
		}
	}
	if o.batch {
		a.makespanPs += slowest
	} else {
		a.makespanPs += total
	}
}

// simQPS is ops per simulated second: a shared batch costs its slowest query,
// sequential queries their sum.
func (a *simAcc) simQPS() float64 {
	if a.makespanPs == 0 {
		return 0
	}
	return float64(a.ops) / (float64(a.makespanPs) * 1e-12)
}

// checker counts what the output checks saw. Any violation fails the run.
type checker struct {
	attempted  int // ops attempted
	failed     int // ops that returned an error or broke an invariant
	checked    int // ops compared with the brute-force oracle
	mismatched int // of those, ops whose top-K differed
	firstErr   string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// invariants checks what must hold for every result: the stages sum exactly
// to the latency, and on a pruned scan the scanned and skipped features add
// up to the range. fullRange is 0 for results that carry no scan range.
func (c *checker) invariants(o opOut, fullRange int64, stagesOnWire bool) {
	for qi, r := range o.results {
		if stagesOnWire {
			var sum deepstore.SimDuration
			for _, s := range r.Stages {
				sum += s.Dur
			}
			if sum != r.Latency {
				c.fail("op %d query %d: stages sum to %d ps, latency is %d ps", o.index, qi, sum, r.Latency)
				return
			}
		}
		if fullRange > 0 && !r.CacheHit && r.FeaturesScanned+r.Prune.FeaturesSkipped != fullRange {
			c.fail("op %d query %d: scanned %d + skipped %d != range %d",
				o.index, qi, r.FeaturesScanned, r.Prune.FeaturesSkipped, fullRange)
			return
		}
	}
}

// oracleTopK is the harness's brute-force reference: score every vector with
// the fp32 per-feature scorer and keep the k best, ties to the lower id.
func oracleTopK(net *deepstore.Network, qfv []float32, vecs [][]float32, k int) []deepstore.Result {
	sc := net.Scorer()
	all := make([]deepstore.Result, len(vecs))
	for i, v := range vecs {
		all[i] = deepstore.Result{FeatureID: int64(i), Score: sc.Score(qfv, v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].FeatureID < all[j].FeatureID
	})
	return all[:min(k, len(all))]
}

// oracle compares every non-hit result of the op with the brute-force top-K
// (a cache hit returns the cached entry's features reranked, which is the
// cache's approximation and not an error).
func (c *checker) oracle(o opOut, net *deepstore.Network, vecs [][]float32, k int) {
	c.checked++
	for qi, r := range o.results {
		if r.CacheHit {
			continue
		}
		want := oracleTopK(net, o.queries[qi], vecs, k)
		if !sameTopK(r.TopK, want) {
			c.mismatched++
			if c.firstErr == "" {
				c.firstErr = fmt.Sprintf("op %d query %d: top-%d differs from the brute-force oracle", o.index, qi, k)
			}
			return
		}
	}
}

func sameTopK(got, want []deepstore.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].FeatureID != want[i].FeatureID || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}
