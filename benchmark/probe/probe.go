// Package probe measures single layers of the stack from outside: every
// function here times calls into one internal package's public functions, on
// inputs the benchmark driver hands it. It is the only part of the benchmark
// that imports repro/internal/...; the end-to-end driver sees the system only
// through the root facade.
//
// A probe repeats its call until the time budget it is given is spent and
// reports the mean, so one slow call (a GC cycle, a descheduled thread) moves
// the figure little. Probes run after the timed loop, never beside it.
package probe

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/proto"
	"repro/internal/qcache"
	"repro/internal/qhist"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/systolic"
	"repro/internal/tensor"
	"repro/internal/topk"
)

// repeat calls f until budget is spent (at least once) and returns the mean
// duration of one call.
func repeat(budget time.Duration, f func()) time.Duration {
	start := time.Now()
	n := 0
	for {
		f()
		n++
		if el := time.Since(start); el >= budget {
			return el / time.Duration(n)
		}
	}
}

// mallocs returns the heap allocations one call of f makes, averaged over
// runs calls after one warm-up call.
func mallocs(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// fcShapes lists the (in, out) of the network's FC layers.
func fcShapes(net *nn.Network) [][2]int {
	var out [][2]int
	for _, l := range net.Layers {
		if fc, ok := l.(*nn.FC); ok {
			out = append(out, [2]int{fc.In, fc.Out})
		}
	}
	return out
}

// Gemm times tensor.Gemm (or tensor.GemmInt8) at the network's FC shapes
// with m = rows, and returns the time one pass over all FC layers takes and
// the multiply-accumulates in it. A network with no FC layer returns zeros.
func Gemm(budget time.Duration, net *nn.Network, rows int, int8Path bool) (pass time.Duration, macs int64) {
	shapes := fcShapes(net)
	if len(shapes) == 0 {
		return 0, 0
	}
	type layer struct {
		a, w, bias, c []float32
		qa, qw        []int8
		acc           []int32
		aS, wS        []float32
		n, k          int
	}
	layers := make([]layer, len(shapes))
	for i, s := range shapes {
		k, n := s[0], s[1]
		l := layer{n: n, k: k, c: make([]float32, rows*n), bias: make([]float32, n)}
		if int8Path {
			l.qa, l.qw = make([]int8, rows*k), make([]int8, n*k)
			l.acc = make([]int32, rows*n)
			l.aS, l.wS = make([]float32, rows), make([]float32, n)
			for j := range l.qa {
				l.qa[j] = int8(j%251 - 125)
			}
			for j := range l.qw {
				l.qw[j] = int8(j%241 - 120)
			}
			for j := range l.aS {
				l.aS[j] = 0.01
			}
			for j := range l.wS {
				l.wS[j] = 0.01
			}
		} else {
			l.a, l.w = make([]float32, rows*k), make([]float32, n*k)
			for j := range l.a {
				l.a[j] = float32(j%17) * 0.01
			}
			for j := range l.w {
				l.w[j] = float32(j%13) * 0.01
			}
		}
		layers[i] = l
		macs += int64(rows) * int64(n) * int64(k)
	}
	pass = repeat(budget, func() {
		for i := range layers {
			l := &layers[i]
			if int8Path {
				tensor.GemmInt8(l.c, l.acc, l.qa, l.qw, l.bias, rows, l.n, l.k, l.aS, l.wS)
			} else {
				tensor.Gemm(l.c, l.a, l.w, l.bias, rows, l.n, l.k)
			}
		}
	})
	return pass, macs
}

// ScoreBatch replays one query against dfvs through nn.BatchScorer on one
// goroutine, in batches of batch, and returns the time of one full pass and
// the allocations of one ScoreBatch call.
func ScoreBatch(budget time.Duration, net *nn.Network, qfv []float32, dfvs [][]float32, batch int) (pass time.Duration, allocsPerBatch float64) {
	if len(dfvs) == 0 {
		return 0, 0
	}
	bs := net.BatchScorer(batch)
	scores := make([]float32, batch)
	pass = repeat(budget, func() {
		for lo := 0; lo < len(dfvs); lo += batch {
			hi := min(lo+batch, len(dfvs))
			bs.ScoreBatch(scores, qfv, dfvs[lo:hi])
		}
	})
	first := dfvs[:min(batch, len(dfvs))]
	allocsPerBatch = mallocs(8, func() { bs.ScoreBatch(scores, qfv, first) })
	return pass, allocsPerBatch
}

// ScoreMultiInt8 replays a batch of queries against dfvs through the int8
// nn.QuantBatchScorer.ScoreMulti on one goroutine and returns the time of
// one full pass (len(qfvs) x len(dfvs) comparisons).
func ScoreMultiInt8(budget time.Duration, net *nn.Network, qfvs, dfvs [][]float32, batch int) time.Duration {
	if len(qfvs) == 0 || len(dfvs) == 0 {
		return 0
	}
	bs := net.Quantize().BatchScorer(batch)
	qdb := nn.QuantizeDB(dfvs)
	qs := make([]nn.QuantQuery, len(qfvs))
	for i, q := range qfvs {
		qs[i] = nn.PrepareQuantQuery(q)
	}
	scores := make([][]float32, len(qfvs))
	for i := range scores {
		scores[i] = make([]float32, batch)
	}
	return repeat(budget, func() {
		for lo := 0; lo < len(qdb); lo += batch {
			hi := min(lo+batch, len(qdb))
			bs.ScoreMulti(scores, qs, qdb[lo:hi])
		}
	})
}

// BoundCheck builds stripe envelopes over consecutive groups of stripe
// vectors and returns the time of one nn.BoundScorer.UpperBound call.
func BoundCheck(budget time.Duration, net *nn.Network, qfv []float32, dfvs [][]float32, stripe int) time.Duration {
	if len(dfvs) == 0 || stripe < 1 {
		return 0
	}
	var envs []nn.Envelope
	for lo := 0; lo < len(dfvs); lo += stripe {
		env := nn.NewEnvelope(len(qfv))
		for _, v := range dfvs[lo:min(lo+stripe, len(dfvs))] {
			env.Absorb(v)
		}
		envs = append(envs, env)
	}
	bnd := net.BoundScorer()
	var sink float32
	pass := repeat(budget, func() {
		for i := range envs {
			sink += bnd.UpperBound(qfv, &envs[i])
		}
	})
	_ = sink
	return pass / time.Duration(len(envs))
}

// TopK offers scores round-robin into queues top-k queues and merges them,
// the way a scan reduces per-channel queues. It returns the time of one
// Offer and of one Merge.
func TopK(budget time.Duration, k, queues int, scores []float32) (offer, merge time.Duration) {
	if len(scores) == 0 {
		return 0, 0
	}
	qs := make([]*topk.Queue, queues)
	for i := range qs {
		qs[i] = topk.New(k)
	}
	pass := repeat(budget/2, func() {
		for _, q := range qs {
			q.Reset()
		}
		for i, s := range scores {
			qs[i%queues].Offer(topk.Entry{FeatureID: int64(i), Score: s})
		}
	})
	merge = repeat(budget/2, func() { topk.Merge(k, qs...) })
	return pass / time.Duration(len(scores)), merge
}

// QCacheLookup fills a mirror qcache with the given cached queries, wired to
// the QCN the way core.SetQC wires it (a pooled batched sweep, sharded across
// goroutines for large caches), and returns the time of one Lookup of q and
// the comparisons it made.
func QCacheLookup(budget time.Duration, qcn *nn.Network, cached [][]float32, q []float32, threshold float64, batch int) (lookup time.Duration, comparisons float64) {
	if len(cached) == 0 {
		return 0, 0
	}
	type sweepCtx struct {
		bs     *nn.BatchScorer
		scores []float32
	}
	pool := sync.Pool{New: func() any {
		return &sweepCtx{bs: qcn.BatchScorer(batch), scores: make([]float32, batch)}
	}}
	c := qcache.New[[]float32](len(cached), 1, func(a, b []float32) float64 { return float64(qcn.Score(a, b)) })
	c.SetBatchScorer(func(dst []float64, q []float32, qs [][]float32) {
		ctx := pool.Get().(*sweepCtx)
		ctx.bs.ScoreBatch(ctx.scores[:len(qs)], q, qs)
		for i := range qs {
			dst[i] = float64(ctx.scores[i])
		}
		pool.Put(ctx)
	}, batch)
	for _, v := range cached {
		c.Insert(v, nil)
	}
	before := c.Stats()
	n := 0
	lookup = repeat(budget, func() {
		c.Lookup(q, threshold)
		n++
	})
	after := c.Stats()
	return lookup, float64(after.Comparisons-before.Comparisons) / float64(n)
}

// QHistCost is what the query-history store costs at a given record count.
type QHistCost struct {
	Append         time.Duration // one Append of a record with its payload
	Mine           time.Duration // one MineGroups pass over all records
	Snapshot       time.Duration // one Snapshot of the store
	BytesPerRecord float64       // hot + cold bytes per record
}

// QHist builds a history of records entries, each carrying qfv and topK as
// its payload, and measures the store's public operations at that size.
func QHist(budget time.Duration, records int, qfv []float32, k int) QHistCost {
	if records < 1 {
		return QHistCost{}
	}
	top := make([]topk.Entry, k)
	for i := range top {
		top[i] = topk.Entry{FeatureID: int64(i), Score: float32(k - i), ObjectID: uint64(i)}
	}
	payload := qhist.EncodePayload(qfv, top)
	rec := qhist.Record{DB: 1, Model: 1, Group: qhist.GroupOf(qfv), K: uint32(k), Digest: qhist.Digest(top)}
	st := qhist.NewStore()
	start := time.Now()
	for i := 0; i < records; i++ {
		rec.Group = uint64(i % 4096)
		st.Append(rec, payload)
	}
	out := QHistCost{Append: time.Since(start) / time.Duration(records)}
	out.Mine = repeat(budget/2, func() { qhist.MineGroups(st.Records()) })
	out.Snapshot = repeat(budget/2, func() { st.Snapshot() })
	out.BytesPerRecord = float64(st.HotBytes()+st.ColdBytes()) / float64(records)
	return out
}

// ScanCost is what one event-driven scan costs the host and reports about
// the modelled hardware.
type ScanCost struct {
	Host             time.Duration
	Events           uint64
	SimElapsed       sim.Duration
	ComputeUtil      float64
	WeightRounds     int64
	CyclesPerFeature int64
	PageReads        uint64
	BusBytes         uint64
	Unsupported      bool
}

// AccelScan runs accel.Scan once on a scratch device for a database of the
// given shape, at the given accelerator level and timing window.
func AccelScan(net *nn.Network, level accel.Level, featureBytes, features, window int64, int8Path bool) (ScanCost, error) {
	e := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	dev, err := ssd.New(e, cfg)
	if err != nil {
		return ScanCost{}, err
	}
	spec := accel.SpecForLevel(level, cfg)
	if int8Path {
		spec.Array.Precision = systolic.INT8
		featureBytes /= 4
	}
	meta, err := dev.CreateDB("probe", featureBytes, features)
	if err != nil {
		return ScanCost{}, err
	}
	start := time.Now()
	res, err := accel.Scan(accel.ScanRequest{
		Device: dev, Spec: spec, Net: net, Layout: meta.Layout, WindowFeaturesPerAccel: window,
	})
	host := time.Since(start)
	var unsup *accel.ErrUnsupported
	if errors.As(err, &unsup) {
		return ScanCost{Unsupported: true}, nil
	}
	if err != nil {
		return ScanCost{}, err
	}
	fs := dev.Flash.Stats()
	return ScanCost{
		Host: host, Events: e.Executed, SimElapsed: res.Elapsed,
		ComputeUtil:  res.ComputeUtilization(spec.Array.FreqHz),
		WeightRounds: res.WeightRounds, CyclesPerFeature: res.PerFeatureCycles,
		PageReads: fs.PageReads, BusBytes: fs.BusBytes,
	}, nil
}

// FeaturesCodec returns the time of one proto.EncodeFeatures plus
// DecodeFeatures round over the given vectors, and the payload size.
func FeaturesCodec(budget time.Duration, vecs [][]float32) (pass time.Duration, payloadBytes int, err error) {
	payload, err := proto.EncodeFeatures(vecs)
	if err != nil || len(payload) == 0 {
		return 0, 0, err
	}
	pass = repeat(budget/2, func() {
		p, _ := proto.EncodeFeatures(vecs)
		_, _ = proto.DecodeFeatures(p)
	})
	return pass, len(payload), nil
}

// FTLCost is what persisting the engine's FTL metadata costs.
type FTLCost struct {
	Snapshot   time.Duration
	Restore    time.Duration
	ImageBytes int
}

// FTLPersist snapshots and restores the engine's FTL. The engine must be
// idle: the FTL is read without the engine lock.
func FTLPersist(budget time.Duration, sys *core.DeepStore) (FTLCost, error) {
	img, err := sys.Device().FTL.Snapshot()
	if err != nil {
		return FTLCost{}, err
	}
	out := FTLCost{ImageBytes: len(img)}
	out.Snapshot = repeat(budget/2, func() { _, _ = sys.Device().FTL.Snapshot() })
	var rerr error
	out.Restore = repeat(budget/2, func() {
		if _, err := ftl.Restore(img); err != nil {
			rerr = err
		}
	})
	return out, rerr
}

// FlashBytesPerUserByte returns the flash a database occupies, with its
// stripe-bound and int8 tables, per byte of feature data written.
func FlashBytesPerUserByte(sys *core.DeepStore, db ftl.DBID) float64 {
	meta, ok := sys.Device().FTL.Lookup(db)
	if !ok {
		return 0
	}
	total := meta.Layout.TotalBytes()
	if l, ok := meta.BoundTable(); ok {
		total += l.TotalBytes()
	}
	if l, ok := meta.QuantTable(); ok {
		total += l.TotalBytes()
	}
	return float64(total) / float64(meta.Layout.Features*meta.Layout.FeatureBytes)
}

// ClusterCost is what a two-shard fan-out costs for one query.
type ClusterCost struct {
	Query    time.Duration // host time of one Engines.Query
	Makespan sim.Duration  // simulated makespan of that query
}

// Cluster splits vecs over shards engines and times Engines.Query for each
// of the queries, returning the median host time.
func Cluster(shards int, opts core.Options, net *nn.Network, vecs, queries [][]float32, k int) (ClusterCost, error) {
	eng, err := cluster.NewEngines(shards, opts)
	if err != nil {
		return ClusterCost{}, err
	}
	if err := eng.WriteDB(vecs); err != nil {
		return ClusterCost{}, err
	}
	if err := eng.LoadModel(net); err != nil {
		return ClusterCost{}, err
	}
	times := make([]time.Duration, 0, len(queries))
	var makespan sim.Duration
	for _, q := range queries {
		start := time.Now()
		ans, err := eng.Query(q, k)
		if err != nil {
			return ClusterCost{}, err
		}
		times = append(times, time.Since(start))
		makespan = ans.Makespan
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return ClusterCost{Query: times[len(times)/2], Makespan: makespan}, nil
}

// Table4Err returns the geometric-mean relative error of the channel-level
// speed-ups of exp.Figure8 against the paper's Table 4, the only reference
// result the repository holds.
func Table4Err(window int64) (float64, error) {
	rows, err := exp.Figure8(window)
	if err != nil {
		return 0, err
	}
	logSum, n := 0.0, 0
	for _, r := range rows {
		ref := exp.PaperTable4[r.App][accel.LevelChannel][0]
		got := r.Speedup[accel.LevelChannel]
		if math.IsNaN(ref) || math.IsNaN(got) || ref <= 0 || got <= 0 {
			continue
		}
		logSum += math.Abs(math.Log(got / ref))
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return math.Exp(logSum/float64(n)) - 1, nil
}
