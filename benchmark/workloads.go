package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync/atomic"
	"time"

	deepstore "repro"
	"repro/benchmark/gen"
	"repro/benchmark/probe"
)

// sizes fixes every workload's inputs. frozen is what BENCHMARK.json's
// numbers were measured at; toy is the same shape in miniature for tests.
type sizes struct {
	// scan_dense: TIR, uniform features, distinct uniform queries.
	scanFeatures, scanQueries, scanWarm, scanSimOps int
	// multi_tight_ingest: TextQA, block-clustered database A read in shared
	// sweeps of multiQ queries, database B appended to beside it.
	multiFeatures, multiQ, multiK, multiStripe, multiMargin int
	multiAppend, multiBatches, multiWarm, multiSimOps       int
	multiNoise                                              float32
	multiAlpha                                              float64
	// cache_zipf_remote: TextQA over the wire, cache smaller than the hot set.
	cacheFeatures, cacheEntries, cacheUniverse, cacheStream int
	cacheWarm, cacheSimOps                                  int
	cacheAlpha, cacheThreshold                              float64
	// sim_paper: declared paper-scale databases, all levels.
	simDBBytes, simWindow int64
	simWarm, simSimOps    int
	// k is the top-K of the single-query workloads.
	k int
}

var frozen = sizes{
	scanFeatures: 2048, scanQueries: 256, scanWarm: 2, scanSimOps: 32,
	multiFeatures: 2048, multiQ: 2, multiK: 2, multiStripe: 8, multiMargin: 4,
	multiAppend: 64, multiBatches: 256, multiWarm: 2, multiSimOps: 48,
	multiNoise: 0.1, multiAlpha: 0.8,
	cacheFeatures: 256, cacheEntries: 1024, cacheUniverse: 4096, cacheStream: 1 << 17,
	cacheWarm: 256, cacheSimOps: 4096, cacheAlpha: 1.0, cacheThreshold: 0.2,
	simDBBytes: 25 << 30, simWindow: 1024, simWarm: 1, simSimOps: 4,
	k: 10,
}

var toy = sizes{
	scanFeatures: 128, scanQueries: 16, scanWarm: 1, scanSimOps: 4,
	multiFeatures: 1024, multiQ: 2, multiK: 2, multiStripe: 8, multiMargin: 4,
	multiAppend: 8, multiBatches: 8, multiWarm: 1, multiSimOps: 3,
	multiNoise: 0.02, multiAlpha: 0.8,
	cacheFeatures: 32, cacheEntries: 16, cacheUniverse: 64, cacheStream: 1 << 10,
	cacheWarm: 8, cacheSimOps: 64, cacheAlpha: 1.0, cacheThreshold: 0.2,
	simDBBytes: 64 << 20, simWindow: 16, simWarm: 1, simSimOps: 2,
	k: 4,
}

// setupFunc builds one workload instance from a seed: inputs, system, data,
// model, warm-up. Everything it does is charged to setup_s.
type setupFunc func(seed int64, sz sizes) (*instance, error)

var setups = map[string]setupFunc{
	"scan_dense":         setupScanDense,
	"multi_tight_ingest": setupMultiTightIngest,
	"cache_zipf_remote":  setupCacheZipfRemote,
	"sim_paper":          setupSimPaper,
}

// wrap maps any op index, the negative ones of warm-up ops included, onto a
// pool of n inputs.
func wrap(i, n int) int { return ((i % n) + n) % n }

func localCheck(fullRange int64) func(*checker, opOut) {
	return func(c *checker, o opOut) { c.invariants(o, fullRange, true) }
}

// queryAndFetch is the single-query op: Query, then GetResults.
func queryAndFetch(sys *deepstore.System, spec deepstore.QuerySpec) (opOut, error) {
	qid, err := sys.Query(spec)
	if err != nil {
		return opOut{}, err
	}
	res, err := sys.GetResults(qid)
	if err != nil {
		return opOut{}, err
	}
	return opOut{queries: [][]float32{spec.QFV}, results: []*deepstore.QueryResult{res}}, nil
}

func setupScanDense(seed int64, sz sizes) (*instance, error) {
	app, err := deepstore.AppByName("TIR")
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(seed)
	dims := app.SCN.FeatureElems()
	vecs := gen.Uniform(gen.Stream(seed, "scan_dense/db"), sz.scanFeatures, dims)
	pool := gen.Uniform(gen.Stream(seed, "scan_dense/queries"), sz.scanQueries, dims)

	opts := deepstore.DefaultOptions()
	sys, err := deepstore.New(opts)
	if err != nil {
		return nil, err
	}
	db, err := sys.WriteDB(vecs)
	if err != nil {
		return nil, err
	}
	model, err := sys.LoadModelNetwork(app.SCN)
	if err != nil {
		return nil, err
	}
	op := func(i int, _ bool) (opOut, error) {
		q := pool[wrap(i, len(pool))]
		before := sys.Device().Engine.Executed
		out, err := queryAndFetch(sys, deepstore.QuerySpec{QFV: q, K: sz.k, Model: model, DB: db})
		out.events = sys.Device().Engine.Executed - before
		return out, err
	}
	for w := 1; w <= sz.scanWarm; w++ {
		if _, err := op(-w, false); err != nil {
			return nil, err
		}
	}
	afterSetup := flashCountsOf(sys)
	return &instance{
		functional: true,
		simOps:     sz.scanSimOps,
		op:         op,
		check:      localCheck(int64(len(vecs))),
		verify:     func(c *checker, o opOut) { c.oracle(o, app.SCN, vecs, sz.k) },
		layers: func(lc *layerCtx) error {
			return layersScanDense(lc, sys, app.SCN, vecs, db, afterSetup, opts, sz)
		},
		close: func() {},
	}, nil
}

func setupMultiTightIngest(seed int64, sz sizes) (*instance, error) {
	app, err := deepstore.AppByName("TextQA")
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(seed)
	dims := app.SCN.FeatureElems()

	opts := deepstore.DefaultOptions()
	opts.Prune = true
	opts.PruneStripeFeatures = sz.multiStripe
	opts.Quantized = true
	opts.RerankMargin = sz.multiMargin
	sys, err := deepstore.New(opts)
	if err != nil {
		return nil, err
	}
	channels := opts.Device.Geometry.Channels
	vecs, centroids := gen.BlockClustered(gen.Stream(seed, "multi/dbA"),
		sz.multiFeatures, dims, channels*sz.multiStripe, sz.multiNoise)
	dbA, err := sys.WriteDB(vecs)
	if err != nil {
		return nil, err
	}
	// Appends cycle through a fixed set of batches: AppendDB copies what it
	// is given, and generating inside the loop would charge the generator
	// to the writer.
	appendRng := gen.Stream(seed, "multi/dbB")
	appendBatches := make([][][]float32, 16)
	for i := range appendBatches {
		appendBatches[i] = gen.Uniform(appendRng, sz.multiAppend, dims)
	}
	dbB, err := sys.WriteDB(appendBatches[0])
	if err != nil {
		return nil, err
	}
	model, err := sys.LoadModelNetwork(app.SCN)
	if err != nil {
		return nil, err
	}
	// Query batches: Zipf over the block centroids, jittered.
	qrng := gen.Stream(seed, "multi/queries")
	zipf := gen.NewZipf(len(centroids), sz.multiAlpha)
	batches := make([][][]float32, sz.multiBatches)
	for b := range batches {
		batches[b] = make([][]float32, sz.multiQ)
		for q := range batches[b] {
			batches[b][q] = gen.Jitter(qrng, centroids[zipf.Next(qrng)], sz.multiNoise)
		}
	}
	op := func(i int, _ bool) (opOut, error) {
		qs := batches[wrap(i, len(batches))]
		specs := make([]deepstore.QuerySpec, len(qs))
		for j, q := range qs {
			specs[j] = deepstore.QuerySpec{QFV: q, K: sz.multiK, Model: model, DB: dbA}
		}
		ids, err := sys.QueryMulti(specs)
		if err != nil {
			return opOut{}, err
		}
		out := opOut{queries: qs, results: make([]*deepstore.QueryResult, len(ids)), batch: true}
		for j, id := range ids {
			if out.results[j], err = sys.GetResults(id); err != nil {
				return opOut{}, err
			}
		}
		return out, nil
	}
	for w := 1; w <= sz.multiWarm; w++ {
		if _, err := op(-w, false); err != nil {
			return nil, err
		}
	}
	appendOp := func(j int) error { return sys.AppendDB(dbB, appendBatches[j%len(appendBatches)]) }
	afterSetup := flashCountsOf(sys)
	return &instance{
		functional:    true,
		simOps:        sz.multiSimOps,
		op:            op,
		appendOp:      appendOp,
		check:         localCheck(int64(len(vecs))),
		verify:        func(c *checker, o opOut) { c.oracle(o, app.SCN, vecs, sz.multiK) },
		rerankPerMiss: sz.multiK * sz.multiMargin,
		layers: func(lc *layerCtx) error {
			return layersMultiTightIngest(lc, sys, app.SCN, vecs, dbA, dbB, afterSetup, appendBatches[1], opts, sz)
		},
		close: func() {},
	}, nil
}

// countingConn counts the bytes the client side of the wire moves.
type countingConn struct {
	rw    io.ReadWriter
	bytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// remoteRoute is one client connection to the served system.
type remoteRoute struct {
	client *deepstore.RemoteClient
	wire   *countingConn
	host   net.Conn
	done   chan error
}

func (r *remoteRoute) close() {
	r.host.Close()
	<-r.done
}

func setupCacheZipfRemote(seed int64, sz sizes) (*instance, error) {
	app, err := deepstore.AppByName("TextQA")
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(seed)
	dims := app.SCN.FeatureElems()
	vecs := gen.Uniform(gen.Stream(seed, "cache/db"), sz.cacheFeatures, dims)
	intents := gen.Uniform(gen.Stream(seed, "cache/intents"), sz.cacheUniverse, dims)
	srng := gen.Stream(seed, "cache/stream")
	zipf := gen.NewZipf(sz.cacheUniverse, sz.cacheAlpha)
	stream := make([]int32, sz.cacheStream)
	for i := range stream {
		stream[i] = int32(zipf.Next(srng))
	}
	qcn, err := gen.ScaledDotQCN(dims, 8)
	if err != nil {
		return nil, err
	}

	opts := deepstore.DefaultOptions()
	opts.History = true
	opts.CacheAdmission = deepstore.AdmissionLearned
	sys, err := deepstore.New(opts)
	if err != nil {
		return nil, err
	}
	// The untraced route is the facade's own Serve and Connect over a pipe.
	connect := func(serve func(io.ReadWriter) error) *remoteRoute {
		host, dev := net.Pipe()
		r := &remoteRoute{host: host, wire: &countingConn{rw: host}, done: make(chan error, 1)}
		go func() {
			err := serve(dev)
			dev.Close()
			r.done <- err
		}()
		r.client = deepstore.Connect(r.wire)
		return r
	}
	plain := connect(func(rw io.ReadWriter) error { return deepstore.Serve(rw, sys) })
	// The traced route differs only in the device-side loop, which is the
	// harness's own and reports each Handler.Execute as a span.
	var traced *remoteRoute
	counters := probe.ClientCounters(plain.client)

	db, err := plain.client.WriteDB(vecs)
	if err != nil {
		return nil, err
	}
	model, err := plain.client.LoadModelNetwork(app.SCN)
	if err != nil {
		return nil, err
	}
	if err := plain.client.SetQC(qcn, 1, sz.cacheEntries, sz.cacheThreshold); err != nil {
		return nil, err
	}
	setupBytes := plain.wire.bytes.Load()

	run := func(r *remoteRoute, q []float32) (opOut, error) {
		qid, err := r.client.Query(q, sz.k, model, db, 0, 0, nil)
		if err != nil {
			return opOut{}, err
		}
		res, err := r.client.GetResults(qid)
		if err != nil {
			return opOut{}, err
		}
		// The wire carries ids, scores, objects, the hit flag and the latency
		// in ns; stages and energy stay on the device.
		qr := &deepstore.QueryResult{CacheHit: res.CacheHit, Latency: res.Latency,
			TopK: make([]deepstore.Result, len(res.IDs))}
		for i := range res.IDs {
			qr.TopK[i] = deepstore.Result{FeatureID: res.IDs[i], Score: res.Scores[i], ObjectID: res.Objects[i]}
		}
		if res.CacheHit {
			qr.FeaturesScanned = int64(len(res.IDs))
		} else {
			qr.FeaturesScanned = int64(len(vecs))
		}
		return opOut{queries: [][]float32{q}, results: []*deepstore.QueryResult{qr}}, nil
	}
	// Warm-up queries come from the tail of the stream, so the timed loop
	// still starts at its head.
	op := func(i int, viaTraced bool) (opOut, error) {
		q := intents[stream[wrap(i, len(stream))]]
		if viaTraced && traced != nil {
			return run(traced, q)
		}
		return run(plain, q)
	}
	for w := 1; w <= sz.cacheWarm; w++ {
		if _, err := op(-w, false); err != nil {
			return nil, err
		}
	}
	base, afterSetup := engineTotalsOf(sys), flashCountsOf(sys)
	inst := &instance{
		functional: true,
		simOps:     sz.cacheSimOps,
		op:         op,
		check:      func(c *checker, o opOut) { c.invariants(o, 0, false) },
		verify:     func(c *checker, o opOut) { c.oracle(o, app.SCN, vecs, sz.k) },
		finishSim: func(a *simAcc) error {
			// Stages and energy do not cross the wire; the engine's public
			// totals since the warm-up stand in (energy as a total only).
			now := engineTotalsOf(sys)
			a.energyTotalJ = now.energyJ - base.energyJ
			var stageMs float64
			for name, ms := range now.stageMs {
				d := ms - base.stageMs[name]
				a.stagePs[name] = int64(d * 1e9)
				if name != "dma" { // charged by GetResults, after the latency is observed
					stageMs += d
				}
			}
			if latMs := now.latencyMs - base.latencyMs; math.Abs(stageMs-latMs) > 1e-6*latMs {
				return fmt.Errorf("engine stage totals sum to %.6f ms, latency total is %.6f ms", stageMs, latMs)
			}
			return nil
		},
		close: func() {
			plain.close()
			if traced != nil {
				traced.close()
			}
		},
	}
	inst.layers = func(lc *layerCtx) error {
		wireBytes := func() int64 {
			n := plain.wire.bytes.Load() - setupBytes
			if traced != nil {
				n += traced.wire.bytes.Load()
			}
			return n
		}
		return layersCacheZipfRemote(lc, sys, app.SCN, qcn, vecs, intents, db, afterSetup, opts, wireBytes, counters, sz)
	}
	inst.enableTrace = func(rec *recorder) {
		traced = connect(func(rw io.ReadWriter) error {
			return probe.Serve(rw, sys, func(opName string, start, end time.Time) {
				if root := inst.rootSpan.Load(); root != 0 {
					rec.add(rec.traceOf(root), root, "proto.execute:"+opName, start, end)
				}
			})
		})
	}
	return inst, nil
}

func setupSimPaper(_ int64, sz sizes) (*instance, error) {
	apps := deepstore.Apps()
	levels := []deepstore.Level{deepstore.LevelSSD, deepstore.LevelChannel, deepstore.LevelChip}
	opts := deepstore.DefaultOptions()
	opts.TimingWindow = sz.simWindow
	qfvs := make([][]float32, len(apps))
	for i, app := range apps {
		qfvs[i] = make([]float32, app.SCN.FeatureElems())
	}
	// One op is one sweep: every application declared at paper scale on a
	// fresh device and queried once per accelerator level. ReId cannot run
	// at chip level; that typed refusal is part of the sweep, not a failure.
	op := func(int, bool) (opOut, error) {
		var out opOut
		for ai, app := range apps {
			sys, err := deepstore.New(opts)
			if err != nil {
				return opOut{}, err
			}
			fb := app.FeatureBytes()
			db, err := sys.DeclareDB(fb, sz.simDBBytes/fb)
			if err != nil {
				return opOut{}, err
			}
			model, err := sys.LoadModelNetwork(app.SCN)
			if err != nil {
				return opOut{}, err
			}
			for li := range levels {
				qid, err := sys.Query(deepstore.QuerySpec{QFV: qfvs[ai], K: sz.k, Model: model, DB: db, Level: &levels[li]})
				if probe.IsUnsupported(err) {
					continue
				}
				if err != nil {
					return opOut{}, fmt.Errorf("%s at %v: %w", app.Name, levels[li], err)
				}
				res, err := sys.GetResults(qid)
				if err != nil {
					return opOut{}, err
				}
				out.queries = append(out.queries, qfvs[ai])
				out.results = append(out.results, res)
			}
			out.events += sys.Device().Engine.Executed
		}
		return out, nil
	}
	for w := 1; w <= sz.simWarm; w++ {
		if _, err := op(-w, false); err != nil {
			return nil, err
		}
	}
	return &instance{
		simOps: sz.simSimOps,
		op:     op,
		check:  localCheck(0),
		verify: func(*checker, opOut) {},
		layers: func(lc *layerCtx) error { return layersSimPaper(lc, apps, levels, sz) },
		close:  func() {},
	}, nil
}
