package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/racetest"
	"repro/internal/workload"
)

// The scan golden table pins every observable of the miss path — top-K
// (feature ids, score bits, object ids), prune accounting, features scanned,
// latency in ps, energy bits and the stage list — as recorded from the five
// scan implementations' default path (Query for Q = 1, QueryMulti for Q > 1)
// at the commit before they were folded into one sweep. The sweep must
// reproduce it at every worker count and gather-batch size.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/scan_golden.json from the current engine")

const goldenPath = "testdata/scan_golden.json"

type goldenCell struct {
	Name string `json:"name"`
	// TopK digests every member's entries; Stats digests every member's prune
	// stats, scanned count, latency, energy and stage durations. The plain
	// fields repeat the sums so a mismatch says what moved.
	TopK      string `json:"topk"`
	Stats     string `json:"stats"`
	Scanned   int64  `json:"scanned"`
	Checked   int64  `json:"checked"`
	Skipped   int64  `json:"skipped"`
	LatencyPs int64  `json:"latency_ps"`
	Stages    string `json:"stages"`
}

type goldenConfig struct {
	name           string
	prune, quant   bool
	margin         int
	features       int
	stripeFeatures int
	app            string // "" = pruneTestNet on clusteredVectors, 4-channel device
	short          bool   // runs under -short
	qs             []int
	ranges         []goldenRange
}

type goldenRange struct {
	name       string
	start, end int64
}

func goldenConfigs() []goldenConfig {
	clustered := []goldenRange{
		{"full", 0, 131},
		{"mid-stripe", 3, 125},
		{"sub-stripe", 9, 12},
		{"tail", 130, 131},
	}
	var out []goldenConfig
	for _, c := range []struct {
		name         string
		prune, quant bool
		margin       int
	}{
		{"dense", false, false, 0},
		{"prune", true, false, 0},
		{"int8", false, true, 0},
		{"int8+rerank", false, true, quantTestMargin},
		{"prune+int8+rerank", true, true, quantTestMargin},
	} {
		out = append(out, goldenConfig{
			name: c.name, prune: c.prune, quant: c.quant, margin: c.margin,
			features: 131, stripeFeatures: pruneTestSF, short: true,
			qs: []int{1, 7, 64}, ranges: clustered,
		})
	}
	out = append(out,
		goldenConfig{
			name: "TextQA/prune+int8+rerank", prune: true, quant: true, margin: quantTestMargin,
			features: 500, stripeFeatures: 4, app: "TextQA", short: true,
			qs: []int{1, 7}, ranges: []goldenRange{{"mid-stripe", 7, 481}},
		},
		goldenConfig{
			name: "ReId/dense", features: 150, app: "ReId",
			qs: []int{1}, ranges: []goldenRange{{"mid-stripe", 3, 141}},
		})
	return out
}

// goldenRun builds a fresh engine for the cell and returns its results in
// member order: Query for Q = 1, QueryMulti otherwise.
func goldenRun(t *testing.T, c goldenConfig, scoreBatch, nq int, r goldenRange) []*QueryResult {
	t.Helper()
	opts := DefaultOptions()
	if c.app == "" {
		opts.Device = pruneTestConfig()
	}
	opts.Prune = c.prune
	opts.PruneStripeFeatures = c.stripeFeatures
	opts.Quantized = c.quant
	opts.RerankMargin = c.margin
	opts.scoreBatch = scoreBatch
	net := pruneTestNet()
	vectors := clusteredVectors(c.features, 17)
	if c.app != "" {
		app, err := workload.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		app.SCN.InitRandom(1)
		net = app.SCN
		vectors = workload.NewFeatureDB(app, c.features, 42).Vectors
	}
	ds, model, db := buildPruneEngine(t, opts, net, vectors)
	specs := make([]QuerySpec, nq)
	for i := range specs {
		specs[i] = QuerySpec{
			QFV: vectors[(i*13)%c.features], K: 1 + (i+2)%5, Model: model, DB: db,
			DBStart: r.start, DBEnd: r.end,
		}
	}
	var ids []QueryID
	if nq == 1 {
		id, err := ds.Query(specs[0])
		if err != nil {
			t.Fatal(err)
		}
		ids = []QueryID{id}
	} else {
		var err error
		if ids, err = ds.QueryMulti(specs); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*QueryResult, len(ids))
	for i, id := range ids {
		// Read the stored result directly: GetResults would append a dma
		// stage, which is not the scan's to pin.
		out[i] = ds.queries[id].result
	}
	return out
}

func goldenDigest(name string, results []*QueryResult) goldenCell {
	cell := goldenCell{Name: name}
	th, sh := fnv.New64a(), fnv.New64a()
	put := func(h interface{ Write([]byte) (int, error) }, v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range results {
		put(th, uint64(len(r.TopK)))
		for _, e := range r.TopK {
			put(th, uint64(e.FeatureID))
			put(th, uint64(math.Float32bits(e.Score)))
			put(th, e.ObjectID)
		}
		put(sh, uint64(r.Prune.StripesChecked))
		put(sh, uint64(r.Prune.StripesSkipped))
		put(sh, uint64(r.Prune.FeaturesSkipped))
		put(sh, uint64(r.FeaturesScanned))
		put(sh, uint64(r.Latency))
		put(sh, math.Float64bits(r.Energy.ComputeJ))
		put(sh, math.Float64bits(r.Energy.MemoryJ))
		put(sh, math.Float64bits(r.Energy.FlashJ))
		names := make([]string, len(r.Stages))
		for i, s := range r.Stages {
			names[i] = s.Name
			put(sh, uint64(s.Dur))
		}
		stages := strings.Join(names, ",")
		sh.Write([]byte(stages))
		if cell.Stages == "" {
			cell.Stages = stages
		}
		cell.Scanned += r.FeaturesScanned
		cell.Checked += r.Prune.StripesChecked
		cell.Skipped += r.Prune.FeaturesSkipped
		cell.LatencyPs += int64(r.Latency)
	}
	cell.TopK = fmt.Sprintf("%016x", th.Sum64())
	cell.Stats = fmt.Sprintf("%016x", sh.Sum64())
	return cell
}

func TestScanGolden(t *testing.T) {
	if *updateGolden {
		var cells []goldenCell
		for _, c := range goldenConfigs() {
			for _, nq := range c.qs {
				for _, r := range c.ranges {
					name := fmt.Sprintf("%s/Q=%d/%s", c.name, nq, r.name)
					cells = append(cells, goldenDigest(name, goldenRun(t, c, 0, nq, r)))
				}
			}
		}
		buf, err := json.MarshalIndent(cells, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cells []goldenCell
	if err := json.Unmarshal(buf, &cells); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]goldenCell, len(cells))
	for _, c := range cells {
		want[c.Name] = c
	}
	seen := 0
	for _, c := range goldenConfigs() {
		for _, nq := range c.qs {
			for _, r := range c.ranges {
				name := fmt.Sprintf("%s/Q=%d/%s", c.name, nq, r.name)
				w, ok := want[name]
				if !ok {
					t.Fatalf("no golden cell %q; regenerate with -update-golden", name)
				}
				seen++
				t.Run(name, func(t *testing.T) {
					if !c.short && testing.Short() {
						t.Skip("conv forward passes are slow")
					}
					if racetest.Enabled && nq > 7 {
						t.Skip("q64 cells are too slow under the race detector")
					}
					for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
						for _, batch := range []int{1, 7, 64} {
							prev := runtime.GOMAXPROCS(workers)
							got := goldenDigest(name, goldenRun(t, c, batch, nq, r))
							runtime.GOMAXPROCS(prev)
							if got != w {
								t.Fatalf("workers=%d scoreBatch=%d:\n got %+v\nwant %+v", workers, batch, got, w)
							}
						}
					}
				})
			}
		}
	}
	if seen != len(cells) {
		t.Fatalf("golden file has %d cells, the table %d", len(cells), seen)
	}
}
