package proto

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Handler is the device-side dispatcher: it decodes DeepStore commands and
// executes them against the query engine running on the SSD's embedded
// cores.
type Handler struct {
	DS *core.DeepStore
	// Obs, when set, counts executed commands per opcode plus non-success
	// completions; nil counts nothing.
	Obs *obs.Registry
	// Sched, when set, enables the queryAsync/await commands: queryAsync
	// admits through the server's batching queue instead of executing
	// synchronously. The wire carries no tenant, so the server must have
	// exactly one. Nil makes those opcodes complete with StatusUnsupported.
	Sched *core.Server

	// ticketMu guards the async ticket table.
	ticketMu   sync.Mutex
	nextTicket uint64
	tickets    map[uint64]<-chan *core.QueryResult
}

// Execute runs one command to completion.
func (h *Handler) Execute(cmd Command) Completion {
	cpl := h.execute(cmd)
	h.Obs.Counter("proto_op_" + cmd.Op.String()).Inc()
	if cpl.Status != StatusSuccess {
		h.Obs.Counter("proto_op_failures").Inc()
	}
	return cpl
}

func (h *Handler) execute(cmd Command) Completion {
	if h.DS == nil {
		return fail(cmd, StatusInternal, "no engine attached")
	}
	switch cmd.Op {
	case OpWriteDB:
		return h.writeDB(cmd)
	case OpAppendDB:
		return h.appendDB(cmd)
	case OpReadDB:
		return h.readDB(cmd)
	case OpLoadModel:
		return h.loadModel(cmd)
	case OpQuery:
		return h.query(cmd)
	case OpGetResults:
		return h.getResults(cmd)
	case OpSetQC:
		return h.setQC(cmd)
	case OpQueryAsync:
		return h.queryAsync(cmd)
	case OpAwait:
		return h.await(cmd)
	default:
		return fail(cmd, StatusUnsupported, fmt.Sprintf("opcode %s", cmd.Op))
	}
}

func fail(cmd Command, s Status, detail string) Completion {
	return Completion{CID: cmd.CID, Status: s, Detail: detail}
}

func ok(cmd Command, value uint64, payload []byte) Completion {
	return Completion{CID: cmd.CID, Status: StatusSuccess, Value: value, Payload: payload}
}

func (h *Handler) writeDB(cmd Command) Completion {
	features, err := DecodeFeatures(cmd.Payload)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	id, err := h.DS.WriteDB(features)
	if err != nil {
		return fail(cmd, StatusCapacity, err.Error())
	}
	return ok(cmd, uint64(id), nil)
}

func (h *Handler) appendDB(cmd Command) Completion {
	features, err := DecodeFeatures(cmd.Payload)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	if err := h.DS.AppendDB(ftl.DBID(cmd.DB), features); err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	return ok(cmd, cmd.DB, nil)
}

func (h *Handler) readDB(cmd Command) Completion {
	start, count := int64(cmd.Args[0]), int64(cmd.Args[1])
	features, err := h.DS.ReadDB(ftl.DBID(cmd.DB), start, count)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	payload, err := EncodeFeatures(features)
	if err != nil {
		return fail(cmd, StatusInternal, err.Error())
	}
	return ok(cmd, uint64(len(features)), payload)
}

func (h *Handler) loadModel(cmd Command) Completion {
	id, err := h.DS.LoadModel(cmd.Payload)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	return ok(cmd, uint64(id), nil)
}

// decodeSpec unpacks the shared query/queryAsync command layout into an
// engine query spec.
func decodeSpec(cmd Command) (core.QuerySpec, error) {
	qfv, err := decodeQFV(cmd.Payload)
	if err != nil {
		return core.QuerySpec{}, err
	}
	spec := core.QuerySpec{
		QFV:     qfv,
		K:       int(cmd.Args[0]),
		Model:   core.ModelID(cmd.Model),
		DB:      ftl.DBID(cmd.DB),
		DBStart: int64(cmd.Args[1]),
		DBEnd:   int64(cmd.Args[2]),
	}
	if lv := cmd.Args[3]; lv > 0 {
		level := accel.Level(lv - 1)
		spec.Level = &level
	}
	return spec, nil
}

func (h *Handler) query(cmd Command) Completion {
	spec, err := decodeSpec(cmd)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	qid, err := h.DS.Query(spec)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	return ok(cmd, uint64(qid), nil)
}

// queryAsync admits a query through the batching server and returns a
// ticket for await. Backpressure (a full admission queue) completes with
// StatusCapacity so the host can shed or retry on its own terms.
func (h *Handler) queryAsync(cmd Command) Completion {
	if h.Sched == nil {
		return fail(cmd, StatusUnsupported, "no server attached")
	}
	spec, err := decodeSpec(cmd)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	ch, err := h.Sched.Submit("", spec)
	if err != nil {
		switch {
		case errors.Is(err, core.ErrQueueFull):
			return fail(cmd, StatusCapacity, err.Error())
		case errors.Is(err, core.ErrServerClosed):
			return fail(cmd, StatusInternal, err.Error())
		}
		return fail(cmd, StatusInvalidField, err.Error())
	}
	h.ticketMu.Lock()
	h.nextTicket++
	ticket := h.nextTicket
	if h.tickets == nil {
		h.tickets = make(map[uint64]<-chan *core.QueryResult)
	}
	h.tickets[ticket] = ch
	h.ticketMu.Unlock()
	return ok(cmd, ticket, nil)
}

// await blocks until the ticket's query has executed and returns its
// results in the getResults encoding. Each ticket is redeemable once. An
// await on an undelivered ticket is the demand signal that cuts its partial
// batch: the blocked connection cannot submit the batch-mates that would
// fill it.
func (h *Handler) await(cmd Command) Completion {
	ticket := cmd.Args[0]
	h.ticketMu.Lock()
	ch, found := h.tickets[ticket]
	delete(h.tickets, ticket)
	h.ticketMu.Unlock()
	if !found {
		return fail(cmd, StatusNotFound, fmt.Sprintf("unknown ticket %d", ticket))
	}
	var res *core.QueryResult
	var okRes bool
	select {
	case res, okRes = <-ch:
	default:
		h.Sched.Flush()
		res, okRes = <-ch
	}
	if !okRes {
		// Defensive: the server delivers exactly one result per accepted
		// submission (failures arrive with QueryResult.Err set), so a closed
		// empty channel would mean a dropped result.
		return fail(cmd, StatusInternal, fmt.Sprintf("ticket %d: result dropped", ticket))
	}
	if res.Err != nil {
		// The query itself failed inside its batch (its batch-mates are
		// unaffected); surface the typed per-query error.
		return fail(cmd, StatusInvalidField, fmt.Sprintf("ticket %d: %v", ticket, res.Err))
	}
	return h.resultCompletion(cmd, res)
}

func (h *Handler) getResults(cmd Command) Completion {
	res, err := h.DS.GetResults(core.QueryID(cmd.Args[0]))
	if err != nil {
		return fail(cmd, StatusNotFound, err.Error())
	}
	return h.resultCompletion(cmd, res)
}

// resultCompletion packs a query result into the shared getResults/await
// completion encoding.
func (h *Handler) resultCompletion(cmd Command, res *core.QueryResult) Completion {
	ids := make([]int64, len(res.TopK))
	scores := make([]float32, len(res.TopK))
	objects := make([]uint64, len(res.TopK))
	for i, e := range res.TopK {
		ids[i], scores[i], objects[i] = e.FeatureID, e.Score, e.ObjectID
	}
	payload, err := EncodeResults(ids, scores, objects)
	if err != nil {
		return fail(cmd, StatusInternal, err.Error())
	}
	// Value packs (cacheHit, latency-in-ns) for host-side accounting.
	value := uint64(res.Latency) / 1000
	if res.CacheHit {
		value |= 1 << 63
	}
	return ok(cmd, value, payload)
}

func (h *Handler) setQC(cmd Command) Completion {
	qcn, err := nn.Unmarshal(cmd.Payload)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	entries := int(cmd.Args[0])
	threshold := float64(cmd.Args[1]) / 1000
	accuracy := float64(cmd.Args[2]) / 1000
	if err := h.DS.SetQC(qcn, accuracy, entries, threshold); err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	return ok(cmd, 0, nil)
}

// decodeQFV unpacks a single feature vector payload.
func decodeQFV(payload []byte) ([]float32, error) {
	features, err := DecodeFeatures(payload)
	if err != nil {
		return nil, err
	}
	if len(features) != 1 {
		return nil, fmt.Errorf("proto: query expects one QFV, got %d", len(features))
	}
	return features[0], nil
}
