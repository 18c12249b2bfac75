package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/ssd"
)

// The Table 2 programming API. The host-side argument conventions (raw
// buffers, byte sizes, db_ids) are mapped to Go types: feature vectors are
// [][]float32 and models are the nn binary codec (the ONNX stand-in).

// WriteDB creates a new feature-vector database and writes num features of
// identical dimensionality (writeDB). The database is laid out striped
// across channels and chips per §4.4 and its metadata registered with the
// FTL; the page programs are executed in the device model so write time and
// wear are accounted. Returns the new database's db_id.
func (ds *DeepStore) WriteDB(features [][]float32) (ftl.DBID, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(features) == 0 {
		return 0, fmt.Errorf("core: writeDB with no features")
	}
	dims := len(features[0])
	if dims == 0 {
		return 0, fmt.Errorf("core: writeDB with empty feature vectors")
	}
	for i, f := range features {
		if len(f) != dims {
			return 0, fmt.Errorf("core: feature %d has %d dims, want %d", i, len(f), dims)
		}
	}
	meta, err := ds.dev.CreateDB(fmt.Sprintf("db-%d", len(ds.dbs)+1), int64(dims)*4, int64(len(features)))
	if err != nil {
		return 0, err
	}
	ds.programRange(meta, 0, "ssd_write", obs.SpanWriteDB)
	st := &dbState{meta: meta, vectors: appendClones(make([][]float32, 0, len(features)), features)}
	st.ident = contentIdent(st.vectors)
	ds.dbs[meta.ID] = st
	ds.refreshTables(st, 0)
	return meta.ID, nil
}

// DeclareDB registers a database by size only (no materialized vectors), for
// paper-scale timing studies where 25 GiB of synthetic features would not
// fit in host memory. Queries against a declared database return timing and
// energy but no meaningful scores.
func (ds *DeepStore) DeclareDB(featureBytes, features int64) (ftl.DBID, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	meta, err := ds.dev.CreateDB(fmt.Sprintf("db-%d", len(ds.dbs)+1), featureBytes, features)
	if err != nil {
		return 0, err
	}
	ds.dbs[meta.ID] = &dbState{meta: meta, ident: identFold(identFold(0, uint64(featureBytes)), uint64(features)) | 1<<63}
	return meta.ID, nil
}

// contentIdent derives a written database's identity (dbState.ident) from its
// feature count, dims and every element's bits, so equal content gets equal
// identities on any engine. Bit 63 is clear; DeclareDB sets it in a declared
// database's, so the two never meet. Host-only: nothing is charged.
func contentIdent(vectors [][]float32) uint64 {
	h := identFold(identFold(0, uint64(len(vectors))), uint64(len(vectors[0])))
	for _, v := range vectors {
		for _, x := range v {
			h = identFold(h, uint64(math.Float32bits(x)))
		}
	}
	return h &^ (1 << 63)
}

// identFold is one FNV-1a step over a whole word (64-bit prime).
func identFold(h, w uint64) uint64 { return (h ^ w) * 1099511628211 }

// programRange charges writing features [start, Features) of the database:
// the pages holding them (each channel's partly filled first page included)
// cross the external link, and each programs once its transfer has landed.
func (ds *DeepStore) programRange(meta *ftl.DBMeta, start int64, prefix, span string) {
	l := meta.Layout
	ds.dev.Walk(ssd.Walk{Layout: l, Pages: func(ch int) (int64, int64) { return l.ChannelRangePages(ch, start, l.Features) },
		Hops: []ssd.Hop{ds.dev.HopExternal, ds.dev.HopProgram}, Depth: ssd.IssueAll, Prefix: prefix, Span: span}, nil)
	ds.engine.Run()
}

// AppendDB appends features to an existing database (appendDB). Appended
// features must match the database dimensionality. Only the pages holding
// the new features are programmed, and only the derived-table pages they
// dirty.
func (ds *DeepStore) AppendDB(id ftl.DBID, features [][]float32) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, err := ds.db(id)
	if err != nil {
		return err
	}
	if st.vectors == nil {
		return fmt.Errorf("core: appendDB to a declared (spec-only) database")
	}
	if st.migrating {
		return fmt.Errorf("%w: appendDB to database %d", ErrMigrating, id)
	}
	dims := int(st.meta.Layout.FeatureBytes / 4)
	for i, f := range features {
		if len(f) != dims {
			return fmt.Errorf("core: appended feature %d has %d dims, want %d", i, len(f), dims)
		}
	}
	meta, err := ds.dev.FTL.AppendDB(id, int64(len(features)))
	if err != nil {
		return err
	}
	oldFeatures := int64(len(st.vectors))
	st.meta = meta
	ds.programRange(meta, oldFeatures, "ssd_append", obs.SpanAppendDB)
	st.vectors = appendClones(st.vectors, features)
	ds.refreshTables(st, oldFeatures)
	return nil
}

// ReadDB reads num features starting at start (readDB). The pages holding
// them are read, staged through controller DRAM and cross the external
// interface in the device model.
func (ds *DeepStore) ReadDB(id ftl.DBID, start, num int64) ([][]float32, error) {
	return ds.readRange(id, start, num, 0, "readDB", "ssd_read", obs.SpanReadDB, nil)
}

// readRange is ReadDB's and ReadRangeForMigration's one body: op names its
// refusals, minNum is the shortest range it reads, and prefix, span and done
// go to the page walk (ssd.Device.StreamRange).
func (ds *DeepStore) readRange(id ftl.DBID, start, num, minNum int64, op, prefix, span string, done func(ssd.StreamStats)) ([][]float32, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, err := ds.db(id)
	if err != nil {
		return nil, err
	}
	if st.vectors == nil {
		return nil, fmt.Errorf("core: %s of a declared (spec-only) database", op)
	}
	if start < 0 || num < minNum || start+num > int64(len(st.vectors)) {
		return nil, fmt.Errorf("core: %s range [%d, %d) outside database of %d features",
			op, start, start+num, len(st.vectors))
	}
	ds.dev.StreamRange(st.meta, start, start+num, prefix, span, done)
	ds.engine.Run()
	return appendClones(make([][]float32, 0, num), st.vectors[start:start+num]), nil
}

// appendClones appends deep copies of vs to dst.
func appendClones(dst, vs [][]float32) [][]float32 {
	for _, v := range vs {
		dst = append(dst, cloneVec(v))
	}
	return dst
}

// LoadModel registers an SCN computation graph serialized in the binary
// model format (loadModel; the paper ships ONNX). The model weights are
// staged into SSD DRAM. Returns the model_id.
func (ds *DeepStore) LoadModel(data []byte) (ModelID, error) {
	net, err := nn.Unmarshal(data)
	if err != nil {
		return 0, err
	}
	return ds.LoadModelNetwork(net)
}

// LoadModelNetwork registers an in-memory network directly (the zero-copy
// path used by tests and examples that build models programmatically).
func (ds *DeepStore) LoadModelNetwork(net *nn.Network) (ModelID, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if net == nil {
		return 0, fmt.Errorf("core: nil model")
	}
	// Stage the weights into SSD DRAM over the external link.
	ds.dev.External.Transfer(net.WeightBytes(), nil)
	ds.dev.DRAM.Transfer(net.WeightBytes(), nil)
	ds.engine.Run()
	id := ds.nextModelID
	ds.nextModelID++
	ds.models[id] = net
	return id, nil
}

// ErrQCNWidth rejects a query whose feature vector is not as wide as the
// query cache's QCN compares: with a cache configured, every query is
// compared against the cached ones, so such a query is refused before it
// touches the cache, the clock or the history.
var ErrQCNWidth = errors.New("core: query width differs from the query cache's QCN")

// cacheScope is what a cached answer answers: the query's database and its
// identity, model and range as submitted (end 0 is the whole database, so a
// whole-database entry outlives AppendDB). A lookup matches only its scope.
type cacheScope struct {
	db         ftl.DBID
	ident      uint64
	model      ModelID
	start, end int64
}

func scopeOf(spec QuerySpec, st *dbState) cacheScope {
	return cacheScope{db: spec.DB, ident: st.ident, model: spec.Model, start: spec.DBStart, end: spec.DBEnd}
}

// cacheQuery is a query cache entry's query: a query vector in its scope.
type cacheQuery struct {
	scope cacheScope
	qfv   []float32
}

// qcResident is the query cache's qcache.Resident: the QCN's nn.Resident
// plus each slot's scope. A key is the QCN's logit — NaN for a slot of
// another scope, which qcache never scores or picks — and Score is the
// QCN's activation of it clamped to the [0, 1] Algorithm 1 weighs: both
// non-decreasing, so the cache activates only the logits that can win.
type qcResident struct {
	*nn.Resident
	qcn    *nn.Network
	scopes []cacheScope // by slot, every slot Put has written
	raw    []float32
}

func (r *qcResident) Put(slot int, q cacheQuery) {
	r.Resident.Put(slot, q.qfv)
	if slot == len(r.scopes) {
		r.scopes = append(r.scopes, q.scope)
	} else {
		r.scopes[slot] = q.scope
	}
}

func (r *qcResident) Keys(keys []float64, q cacheQuery) {
	r.raw = slices.Grow(r.raw[:0], len(keys))[:len(keys)]
	r.Logits(r.raw, q.qfv)
	w := &q.scope
	for i, l := range r.raw {
		keys[i] = float64(l)
		// Field by field: == on a five-field struct calls memequal per slot.
		if s := &r.scopes[i]; s.db != w.db || s.ident != w.ident || s.model != w.model || s.start != w.start || s.end != w.end {
			keys[i] = math.NaN()
		}
	}
}

func (r *qcResident) Score(key float64) float64 {
	return min(max(float64(r.qcn.Activate(float32(key))), 0), 1)
}

// SetQC configures the similarity-based query cache (setQC): the QCN model,
// its accuracy, the entry capacity, and the error threshold (§4.6). A second
// call reconfigures (and clears) the cache.
func (ds *DeepStore) SetQC(qcn *nn.Network, qcnAccuracy float64, entries int, threshold float64) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if qcn == nil {
		return fmt.Errorf("core: nil QCN")
	}
	if entries < 1 {
		return fmt.Errorf("core: query cache needs at least one entry")
	}
	if threshold < 0 || threshold > 1 {
		return fmt.Errorf("core: threshold %v outside [0,1]", threshold)
	}
	if qcnAccuracy <= 0 || qcnAccuracy > 1 {
		return fmt.Errorf("core: QCN accuracy %v outside (0,1]", qcnAccuracy)
	}
	// The cached queries stay resident in the QCN's operand layout, written
	// once per insert (§4.6 keeps the entries in SSD DRAM for the channel
	// accelerators), and a lookup compares them all in one pass.
	ds.qcr = &qcResident{Resident: qcn.Resident(entries), qcn: qcn}
	ds.qc = qcache.NewResident[cacheQuery](entries, qcnAccuracy, ds.qcr)
	ds.qcn = qcn
	ds.qcThreshold = threshold
	if ds.opts.CacheAdmission == AdmissionLearned {
		// Learned admission: the policy reads the mined history under ds.mu
		// (Insert only ever runs with the engine lock held). While the model
		// is empty it defers to LRU bit-identically.
		ds.qc.SetPolicy(&learnedPolicy{ds: ds})
	}
	return nil
}
