package proto

import (
	"fmt"

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

func (h *Handler) query(cmd Command) Completion {
	qfv, err := decodeQFV(cmd.Payload)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
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
	qid, err := h.DS.Query(spec)
	if err != nil {
		return fail(cmd, StatusInvalidField, err.Error())
	}
	return ok(cmd, uint64(qid), nil)
}

func (h *Handler) getResults(cmd Command) Completion {
	res, err := h.DS.GetResults(core.QueryID(cmd.Args[0]))
	if err != nil {
		return fail(cmd, StatusNotFound, err.Error())
	}
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
