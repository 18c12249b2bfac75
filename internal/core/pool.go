package core

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/topk"
)

// multiScoreRows is the scorer row capacity of a shared (Q > 1) sweep's
// context: one ScoreMulti chunk packs up to this many (query, feature) pair
// rows per GEMM pass, so shared sweeps get large matrix-matrix tiles even
// when the gather batch is the single-query default. Scratch scales with it ×
// the widest activation, which keeps per-worker memory in the low megabytes.
const multiScoreRows = 512

// batchCtx is one worker's scoring context — the whole of its nn state: a
// BatchScorer and the stripe-bound scorer of a pruned sweep, plus the
// gather/scatter scratch the sweep fills between GEMM calls — the
// feature-vector slots, their feature IDs and channels, and one score row per
// query. The gather slots are sized to the engine's score batch at
// construction, so a worker that holds a batchCtx scores its whole stripe
// without allocating. On a quantized engine the context additionally carries
// the int8 scorer and quantized-vector slots (qbs/qdfvs); a sweep uses one
// family or the other, never both.
type batchCtx struct {
	pool   *sync.Pool
	bs     *nn.BatchScorer
	bnd    *nn.BoundScorer
	dfvs   [][]float32
	ids    []int64
	chs    []int
	scores [][]float32
	qbs    *nn.QuantBatchScorer
	qdfvs  []nn.QuantizedVector
}

// scoreRows returns nq score rows of one gather batch each, growing the
// pooled set on a context's first sweep at that width.
func (c *batchCtx) scoreRows(nq int) [][]float32 {
	for len(c.scores) < nq {
		c.scores = append(c.scores, make([]float32, len(c.ids)))
	}
	return c.scores[:nq]
}

// offer presents the first n gathered features, scored in row, to query q's
// queue of each feature's channel (queues is indexed [ch*nq+q]), in gather
// order.
func (c *batchCtx) offer(queues []*topk.Queue, nq, q int, row []float32, n int) {
	for j := 0; j < n; j++ {
		queues[c.chs[j]*nq+q].Offer(topk.Entry{
			FeatureID: c.ids[j],
			Score:     row[j],
		})
	}
}

// batchPools hands out per-worker batchCtxs, one sync.Pool per (network,
// scorer row capacity): a BatchScorer's scratch is shaped by its network, and
// a single-query sweep must not pay for — or pin — the wide multi-query
// scratch. get and release are called from scan workers without the engine
// mutex; the map is guarded by its own mutex and the pools themselves are
// concurrency-safe. On a quantized engine the pools also memoize one
// QuantNetwork per network (the int8 weight images are immutable and shared;
// per-worker scratch stays in the contexts).
type batchPools struct {
	mu        sync.Mutex
	batch     int
	quantized bool
	pools     map[poolKey]*sync.Pool
	qnets     map[*nn.Network]*nn.QuantNetwork
}

type poolKey struct {
	net  *nn.Network
	rows int
}

// get returns a context for net whose scorers accept up to rows rows per
// GEMM pass.
func (p *batchPools) get(net *nn.Network, rows int) *batchCtx {
	key := poolKey{net, rows}
	p.mu.Lock()
	pool, ok := p.pools[key]
	if !ok {
		b := p.batch
		var qn *nn.QuantNetwork
		if p.quantized {
			if qn, ok = p.qnets[net]; !ok {
				if p.qnets == nil {
					p.qnets = make(map[*nn.Network]*nn.QuantNetwork)
				}
				qn = net.Quantize()
				p.qnets[net] = qn
			}
		}
		pool = new(sync.Pool)
		pool.New = func() any {
			c := &batchCtx{
				pool: pool,
				bs:   net.BatchScorer(rows),
				bnd:  net.BoundScorer(),
				dfvs: make([][]float32, b),
				ids:  make([]int64, b),
				chs:  make([]int, b),
			}
			if qn != nil {
				c.qbs = qn.BatchScorer(rows)
				c.qdfvs = make([]nn.QuantizedVector, b)
			}
			return c
		}
		if p.pools == nil {
			p.pools = make(map[poolKey]*sync.Pool)
		}
		p.pools[key] = pool
	}
	p.mu.Unlock()
	return pool.Get().(*batchCtx)
}

// release returns c to its pool, dropping the feature-vector references so
// pooled contexts do not pin database memory between queries.
func (c *batchCtx) release() {
	clear(c.dfvs)
	clear(c.qdfvs)
	c.pool.Put(c)
}
