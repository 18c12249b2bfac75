package deepstore

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestFacadeEndToEnd drives the public API exactly as a downstream user
// would: build a database, load a model, query, and read results.
func TestFacadeEndToEnd(t *testing.T) {
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, err := AppByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(7)
	db := NewFeatureDB(app, 128, 11)
	dbID, err := sys.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalModel(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sys.LoadModel(data)
	if err != nil {
		t.Fatal(err)
	}
	q := NewFeatureDB(app, 1, 99).Vectors[0]
	qid, err := sys.Query(QuerySpec{QFV: q, K: 3, Model: model, DB: dbID})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.GetResults(qid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 3 {
		t.Fatalf("topK = %d", len(res.TopK))
	}
	if res.Latency <= 0 {
		t.Error("no latency")
	}
}

// TestFacadeServeDelivers runs README's serving snippet through the facade —
// one Submit to a partial batch, Flush, receive — and holds README to that
// order: a receive before any Flush waits forever, because Submit only
// admits and nothing else runs the partial batch.
func TestFacadeServeDelivers(t *testing.T) {
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, err := AppByName("TIR")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(1)
	db := NewFeatureDB(app, 200, 2)
	dbID, err := sys.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sys.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, ServerConfig{
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 8, SLO: 2 * SimMillisecond},
			{Name: "bulk", Weight: 1, QueueDepth: 16},
		},
		BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ch, err := srv.Submit("gold", QuerySpec{QFV: db.Vectors[3], K: 5, Model: model, DB: dbID})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	select {
	case res := <-ch:
		if res == nil || res.Err != nil || len(res.TopK) != 5 {
			t.Fatalf("bad result %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no result 10 s after Flush")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var snippet string
	for _, block := range fencedBlock.FindAllString(string(readme), -1) {
		if strings.Contains(block, "deepstore.NewServer(") {
			snippet = block
		}
	}
	submit := strings.Index(snippet, "srv.Submit(")
	flush := strings.Index(snippet, "srv.Flush()")
	receive := strings.Index(snippet, "<-ch")
	if submit < 0 || receive < 0 || flush < submit || flush > receive {
		t.Fatalf("README's serving snippet must Submit, then srv.Flush(), then receive; it reads:\n%s", snippet)
	}
}

func TestFacadeCustomNetwork(t *testing.T) {
	// Build a custom SCN through the facade's layer constructors.
	net, err := NewNetwork("custom", []int{64}, CombineHadamard,
		NewFC("fc1", 64, 32, ActReLU),
		NewFC("fc2", 32, 1, ActSigmoid),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitRandom(5)
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vectors := make([][]float32, 32)
	for i := range vectors {
		v := make([]float32, 64)
		for j := range v {
			v[j] = float32((i*j)%7) / 7
		}
		vectors[i] = v
	}
	dbID, err := sys.WriteDB(vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sys.LoadModelNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	lvl := LevelChip
	qid, err := sys.Query(QuerySpec{QFV: vectors[3], K: 1, Model: model, DB: dbID, Level: &lvl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.GetResults(qid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 1 {
		t.Fatal("no result")
	}
}

func TestFacadeQuantization(t *testing.T) {
	v := []float32{0.5, -1.0, 0.25, 0}
	q := QuantizeVector(v)
	back := q.Dequantize()
	for i := range v {
		if diff := v[i] - back[i]; diff > 0.01 || diff < -0.01 {
			t.Fatalf("dequantized[%d] = %v, want ~%v", i, back[i], v[i])
		}
	}
	if err := QuantizationError(v); err > 0.01 {
		t.Errorf("quantization error %v", err)
	}
	if dbq := QuantizeDB([][]float32{v, v}); len(dbq) != 2 {
		t.Error("QuantizeDB wrong length")
	}
	net, _ := NewNetwork("q", []int{4}, CombineHadamard, NewFC("f", 4, 1, ActSigmoid))
	net.InitRandom(1)
	drift, err := ScoreDrift(net, [][]float32{v}, [][]float32{v})
	if err != nil {
		t.Fatal(err)
	}
	if drift > 0.05 {
		t.Errorf("score drift %v", drift)
	}
}

func TestAppsFacade(t *testing.T) {
	if len(Apps()) != 5 {
		t.Error("Apps() incomplete")
	}
	if _, err := AppByName("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}
