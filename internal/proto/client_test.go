package proto

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// newEngineClient builds an engine-backed client over the given transport
// constructor.
func newEngineClient(t *testing.T, useStream bool) (*Client, *workload.App) {
	t.Helper()
	ds, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(3)
	h := &Handler{DS: ds}
	if !useStream {
		return NewClient(Loopback{Handler: h}), app
	}
	hostSide, devSide := net.Pipe()
	t.Cleanup(func() { hostSide.Close() })
	go func() {
		defer devSide.Close()
		_ = Serve(devSide, h)
	}()
	return NewClient(NewStream(hostSide)), app
}

// TestClientEndToEnd drives the full Table 2 API through the protocol layer
// on both transports.
func TestClientEndToEnd(t *testing.T) {
	for _, useStream := range []bool{false, true} {
		name := "loopback"
		if useStream {
			name = "stream"
		}
		t.Run(name, func(t *testing.T) {
			client, app := newEngineClient(t, useStream)
			db := workload.NewFeatureDB(app, 64, 5)

			dbID, err := client.WriteDB(db.Vectors)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.AppendDB(dbID, db.Vectors[:4]); err != nil {
				t.Fatal(err)
			}
			back, err := client.ReadDB(dbID, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != 3 || back[0][0] != db.Vectors[2][0] {
				t.Error("readDB returned wrong data")
			}

			model, err := client.LoadModelNetwork(app.SCN)
			if err != nil {
				t.Fatal(err)
			}
			q := workload.NewFeatureDB(app, 1, 9).Vectors[0]
			qid, err := client.Query(q, 5, model, dbID, 0, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := client.GetResults(qid)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.IDs) != 5 || len(res.Scores) != 5 {
				t.Fatalf("results = %d rows", len(res.IDs))
			}
			if res.Latency <= 0 {
				t.Error("no latency in completion")
			}
			if res.CacheHit {
				t.Error("cache hit without a configured cache")
			}

			// setQC over the wire, then a repeated query.
			if err := client.SetQC(app.QCN(), 0.95, 16, 0.2); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Query(q, 5, model, dbID, 0, 0, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClientConcurrentCallers shares one client — and therefore one Stream
// with its single bufio.Writer — across goroutines. The client mutex must
// serialize submissions so frames never interleave; run under -race this
// also proves the CID counter and writer are not raced.
func TestClientConcurrentCallers(t *testing.T) {
	for _, useStream := range []bool{false, true} {
		name := "loopback"
		if useStream {
			name = "stream"
		}
		t.Run(name, func(t *testing.T) {
			client, app := newEngineClient(t, useStream)
			db := workload.NewFeatureDB(app, 96, 5)
			dbID, err := client.WriteDB(db.Vectors)
			if err != nil {
				t.Fatal(err)
			}
			model, err := client.LoadModelNetwork(app.SCN)
			if err != nil {
				t.Fatal(err)
			}
			const workers, perWorker = 6, 4
			errs := make(chan error, workers*perWorker)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						q := workload.NewFeatureDB(app, 1, int64(100+w*perWorker+i)).Vectors[0]
						qid, err := client.Query(q, 3, model, dbID, 0, 0, nil)
						if err != nil {
							errs <- err
							return
						}
						res, err := client.GetResults(qid)
						if err != nil {
							errs <- err
							return
						}
						if len(res.IDs) != 3 {
							errs <- fmt.Errorf("query returned %d rows, want 3", len(res.IDs))
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

func TestClientErrorsSurface(t *testing.T) {
	client, app := newEngineClient(t, false)
	// Query against an unknown database.
	q := workload.NewFeatureDB(app, 1, 9).Vectors[0]
	if _, err := client.Query(q, 5, 1, 999, 0, 0, nil); err == nil {
		t.Error("unknown DB accepted")
	}
	// getResults for an unknown query.
	if _, err := client.GetResults(12345); err == nil {
		t.Error("unknown query accepted")
	}
	// Malformed model blob.
	if _, err := client.LoadModel([]byte("not a model")); err == nil {
		t.Error("bad model accepted")
	}
}

// TestBadLevelFrameIsRefused: a query frame whose level word names no
// accelerator level completes with StatusInvalidField instead of panicking
// the connection goroutine, and the server keeps serving afterwards.
func TestBadLevelFrameIsRefused(t *testing.T) {
	ds, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(3)
	hostSide, devSide := net.Pipe()
	t.Cleanup(func() { hostSide.Close() })
	go func() {
		defer devSide.Close()
		_ = Serve(devSide, &Handler{DS: ds})
	}()
	stream := NewStream(hostSide)
	client := NewClient(stream)
	db := workload.NewFeatureDB(app, 64, 5)
	dbID, err := client.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := client.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	cpl, err := stream.Submit(badLevelQuery(uint64(dbID), uint64(model), db.Vectors[0]))
	if err != nil {
		t.Fatalf("bad-level frame broke the transport: %v", err)
	}
	if cpl.Status != StatusInvalidField {
		t.Fatalf("bad-level frame completed with %v (%q), want %v", cpl.Status, cpl.Detail, StatusInvalidField)
	}
	qid, err := client.Query(db.Vectors[0], 5, model, dbID, 0, 0, nil)
	if err != nil {
		t.Fatalf("server stopped serving after the bad-level frame: %v", err)
	}
	if _, err := client.GetResults(qid); err != nil {
		t.Fatal(err)
	}
}

// TestUnassignedOpcodesUnsupported: the Table 2 commands keep their wire
// numbers 0x81..0x87, the numbers after them (0x88, 0x89) name no command,
// so frames carrying them complete with StatusUnsupported, and the server
// keeps serving afterwards.
func TestUnassignedOpcodesUnsupported(t *testing.T) {
	if OpWriteDB != 0x81 || OpQuery != 0x85 || OpGetResults != 0x86 || OpSetQC != 0x87 {
		t.Fatalf("Table 2 opcodes moved: writeDB 0x%02x, query 0x%02x, getResults 0x%02x, setQC 0x%02x",
			uint8(OpWriteDB), uint8(OpQuery), uint8(OpGetResults), uint8(OpSetQC))
	}
	client, app := newEngineClient(t, true)
	db := workload.NewFeatureDB(app, 64, 5)
	dbID, err := client.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := client.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeFeatures([][]float32{db.Vectors[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Opcode{0x88, 0x89} {
		cpl, err := client.T.Submit(Command{Op: op, CID: uint16(op), DB: uint64(dbID), Model: uint64(model),
			Args: [4]uint64{5, 1}, Payload: payload})
		if err != nil {
			t.Fatalf("opcode 0x%02x broke the transport: %v", uint8(op), err)
		}
		if cpl.Status != StatusUnsupported || cpl.CID != uint16(op) {
			t.Fatalf("opcode 0x%02x completed with %v (%q) CID %d, want %v", uint8(op), cpl.Status, cpl.Detail, cpl.CID, StatusUnsupported)
		}
	}
	qid, err := client.Query(db.Vectors[0], 5, model, dbID, 0, 0, nil)
	if err != nil {
		t.Fatalf("server stopped serving after an unassigned opcode: %v", err)
	}
	if _, err := client.GetResults(qid); err != nil {
		t.Fatal(err)
	}
}

// TestQueryOfAnotherWidthThanTheQCNIsRefused: with a 512-dimension QCN set
// over the wire in front of a 200-dimension database, every query — the
// second one used to panic the connection goroutine while it held the engine
// lock — completes with an invalid-field error frame naming the width
// mismatch, and the server keeps serving: with a QCN of the right width the
// same query is answered, once through an empty cache and once against the
// entry it left.
func TestQueryOfAnotherWidthThanTheQCNIsRefused(t *testing.T) {
	client, app := newEngineClient(t, true)
	db := workload.NewFeatureDB(app, 64, 5)
	dbID, err := client.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := client.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	tir, err := workload.ByName("TIR")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetQC(tir.QCN(), 0.95, 16, 0.2); err != nil {
		t.Fatal(err)
	}
	q := db.Vectors[3]
	for i := 0; i < 2; i++ {
		_, err := client.Query(q, 5, model, dbID, 0, 0, nil)
		if err == nil || !strings.Contains(err.Error(), StatusInvalidField.String()) ||
			!strings.Contains(err.Error(), core.ErrQCNWidth.Error()) {
			t.Fatalf("query %d: err %v, want an invalid-field frame carrying %q", i, err, core.ErrQCNWidth)
		}
	}
	if err := client.SetQC(app.QCN(), 1, 16, 0.2); err != nil {
		t.Fatalf("server stopped serving after the refused queries: %v", err)
	}
	for i := 0; i < 2; i++ {
		qid, err := client.Query(q, 5, model, dbID, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.GetResults(qid); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientMatchesDirectEngine(t *testing.T) {
	// The protocol path must return the same top-K as calling the engine
	// directly.
	ds, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("TIR")
	app.SCN.InitRandom(4)
	db := workload.NewFeatureDB(app, 100, 6)

	dbID, err := ds.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.NewFeatureDB(app, 1, 10).Vectors[0]
	qid, err := ds.Query(core.QuerySpec{QFV: q, K: 4, Model: model, DB: dbID})
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := ds.GetResults(qid)

	client := NewClient(Loopback{Handler: &Handler{DS: ds}})
	qid2, err := client.Query(q, 4, model, dbID, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaProto, err := client.GetResults(qid2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.TopK {
		if direct.TopK[i].FeatureID != viaProto.IDs[i] ||
			direct.TopK[i].Score != viaProto.Scores[i] ||
			direct.TopK[i].ObjectID != viaProto.Objects[i] {
			t.Fatalf("rank %d differs between direct and protocol paths", i)
		}
	}
}
