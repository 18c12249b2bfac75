// Package proto implements the host↔SSD command protocol of the DeepStore
// API. The paper's programming interface (Table 2) "internally uses new
// NVMe commands to interact with the query engine" (§4.7.2); this package
// defines those vendor-specific commands in an NVMe-like wire format — a
// fixed 64-byte submission entry plus an optional data payload — together
// with a host-side client, a device-side dispatcher, and transports
// (in-process loopback and a stream transport for socket-attached use).
package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Opcode identifies a vendor-specific DeepStore command.
type Opcode uint8

// The Table 2 operations.
const (
	OpWriteDB Opcode = 0x81 + iota
	OpAppendDB
	OpReadDB
	OpLoadModel
	OpQuery
	OpGetResults
	OpSetQC
)

// String names the opcode as in Table 2.
func (o Opcode) String() string {
	switch o {
	case OpWriteDB:
		return "writeDB"
	case OpAppendDB:
		return "appendDB"
	case OpReadDB:
		return "readDB"
	case OpLoadModel:
		return "loadModel"
	case OpQuery:
		return "query"
	case OpGetResults:
		return "getResults"
	case OpSetQC:
		return "setQC"
	default:
		return fmt.Sprintf("Opcode(0x%02x)", uint8(o))
	}
}

// Status is a completion status code.
type Status uint16

// Completion statuses.
const (
	StatusSuccess Status = iota
	StatusInvalidField
	StatusUnsupported
	StatusInternal
	StatusNotFound
	StatusCapacity
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusInvalidField:
		return "invalid field"
	case StatusUnsupported:
		return "unsupported"
	case StatusInternal:
		return "internal error"
	case StatusNotFound:
		return "not found"
	case StatusCapacity:
		return "capacity exceeded"
	default:
		return fmt.Sprintf("Status(%d)", uint16(s))
	}
}

// Command is one submission-queue entry: a fixed header of identifiers and
// four op-specific argument words, plus a data payload (the PRP-described
// buffer in real NVMe).
type Command struct {
	Op    Opcode
	CID   uint16 // host-assigned command identifier, echoed in the completion
	DB    uint64 // db_id
	Model uint64 // model_id
	// Args carry op-specific values:
	//   writeDB:    [featureBytes, count]
	//   appendDB:   [featureBytes, count]
	//   readDB:     [start, count]
	//   loadModel:  []
	//   query:      [k, start, end, level+1 (0 = engine default)]
	//   getResults: [queryID]
	//   setQC:      [entries, threshold(millis), accuracy(millis)]
	Args [4]uint64
	// Payload carries feature data, the model blob, or the QFV.
	Payload []byte
}

// Completion is one completion-queue entry.
type Completion struct {
	CID    uint16
	Status Status
	// Value carries the primary result (db_id, model_id, query_id, …).
	Value uint64
	// Payload carries bulk results (features, top-K rows).
	Payload []byte
	// Detail is a diagnostic message for non-success statuses.
	Detail string
}

// Err converts a non-success completion into an error.
func (c Completion) Err() error {
	if c.Status == StatusSuccess {
		return nil
	}
	if c.Detail != "" {
		return fmt.Errorf("proto: %s: %s", c.Status, c.Detail)
	}
	return fmt.Errorf("proto: %s", c.Status)
}

const (
	headerBytes = 64
	magic       = 0xD5 // first header byte of every command
	cmplMagic   = 0xD6
	// MaxPayload bounds a single command's data buffer (a real device
	// would bound PRP lists similarly).
	MaxPayload = 1 << 30
)

var wire = binary.LittleEndian

// readBody wraps io.ReadFull for reads after a successful header read. At
// that point the frame is committed, so running out of bytes — even exactly
// at a field boundary, where ReadFull reports a bare io.EOF — is a mid-frame
// disconnect, not a clean shutdown. Mapping to io.ErrUnexpectedEOF keeps
// Serve from treating a truncated command as end-of-stream and silently
// dropping it.
func readBody(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// MarshalCommand encodes a command into its wire form.
func MarshalCommand(c Command) ([]byte, error) {
	if len(c.Payload) > MaxPayload {
		return nil, fmt.Errorf("proto: payload %d exceeds %d", len(c.Payload), MaxPayload)
	}
	buf := make([]byte, headerBytes+len(c.Payload))
	buf[0] = magic
	buf[1] = byte(c.Op)
	wire.PutUint16(buf[2:], c.CID)
	wire.PutUint64(buf[8:], c.DB)
	wire.PutUint64(buf[16:], c.Model)
	for i, a := range c.Args {
		wire.PutUint64(buf[24+8*i:], a)
	}
	wire.PutUint64(buf[56:], uint64(len(c.Payload)))
	copy(buf[headerBytes:], c.Payload)
	return buf, nil
}

// UnmarshalCommand decodes a command from r.
func UnmarshalCommand(r io.Reader) (Command, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Command{}, err
	}
	if hdr[0] != magic {
		return Command{}, fmt.Errorf("proto: bad command magic 0x%02x", hdr[0])
	}
	c := Command{
		Op:    Opcode(hdr[1]),
		CID:   wire.Uint16(hdr[2:]),
		DB:    wire.Uint64(hdr[8:]),
		Model: wire.Uint64(hdr[16:]),
	}
	for i := range c.Args {
		c.Args[i] = wire.Uint64(hdr[24+8*i:])
	}
	n := wire.Uint64(hdr[56:])
	if n > MaxPayload {
		return Command{}, fmt.Errorf("proto: payload length %d exceeds %d", n, MaxPayload)
	}
	if n > 0 {
		c.Payload = make([]byte, n)
		if err := readBody(r, c.Payload); err != nil {
			return Command{}, err
		}
	}
	return c, nil
}

// MarshalCompletion encodes a completion into its wire form.
func MarshalCompletion(c Completion) ([]byte, error) {
	if len(c.Payload) > MaxPayload {
		return nil, fmt.Errorf("proto: payload %d exceeds %d", len(c.Payload), MaxPayload)
	}
	detail := []byte(c.Detail)
	if len(detail) > math.MaxUint16 {
		detail = detail[:math.MaxUint16]
	}
	buf := make([]byte, 32+len(detail)+len(c.Payload))
	buf[0] = cmplMagic
	wire.PutUint16(buf[2:], c.CID)
	wire.PutUint16(buf[4:], uint16(c.Status))
	wire.PutUint16(buf[6:], uint16(len(detail)))
	wire.PutUint64(buf[8:], c.Value)
	wire.PutUint64(buf[16:], uint64(len(c.Payload)))
	copy(buf[32:], detail)
	copy(buf[32+len(detail):], c.Payload)
	return buf, nil
}

// UnmarshalCompletion decodes a completion from r.
func UnmarshalCompletion(r io.Reader) (Completion, error) {
	var hdr [32]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Completion{}, err
	}
	if hdr[0] != cmplMagic {
		return Completion{}, fmt.Errorf("proto: bad completion magic 0x%02x", hdr[0])
	}
	c := Completion{
		CID:    wire.Uint16(hdr[2:]),
		Status: Status(wire.Uint16(hdr[4:])),
		Value:  wire.Uint64(hdr[8:]),
	}
	detailLen := int(wire.Uint16(hdr[6:]))
	payloadLen := wire.Uint64(hdr[16:])
	if payloadLen > MaxPayload {
		return Completion{}, fmt.Errorf("proto: payload length %d exceeds %d", payloadLen, MaxPayload)
	}
	if detailLen > 0 {
		b := make([]byte, detailLen)
		if err := readBody(r, b); err != nil {
			return Completion{}, err
		}
		c.Detail = string(b)
	}
	if payloadLen > 0 {
		c.Payload = make([]byte, payloadLen)
		if err := readBody(r, c.Payload); err != nil {
			return Completion{}, err
		}
	}
	return c, nil
}

// EncodeFeatures packs feature vectors into a command payload
// (count × dims float32, little endian).
func EncodeFeatures(features [][]float32) ([]byte, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("proto: no features")
	}
	dims := len(features[0])
	buf := make([]byte, 8+4*dims*len(features))
	wire.PutUint32(buf[0:], uint32(len(features)))
	wire.PutUint32(buf[4:], uint32(dims))
	off := 8
	for i, f := range features {
		if len(f) != dims {
			return nil, fmt.Errorf("proto: feature %d has %d dims, want %d", i, len(f), dims)
		}
		for _, v := range f {
			wire.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return buf, nil
}

// DecodeFeatures unpacks a feature payload.
func DecodeFeatures(payload []byte) ([][]float32, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("proto: feature payload too short")
	}
	count := int64(wire.Uint32(payload[0:]))
	dims := int64(wire.Uint32(payload[4:]))
	// Bound both factors before multiplying so a hostile header cannot
	// overflow the length arithmetic or drive a giant allocation.
	if count <= 0 || dims <= 0 || count > MaxPayload || dims > MaxPayload {
		return nil, fmt.Errorf("proto: invalid feature payload header (%d x %d)", count, dims)
	}
	want := 8 + 4*count*dims
	if want > MaxPayload || int64(len(payload)) != want {
		return nil, fmt.Errorf("proto: feature payload %d bytes, want %d", len(payload), want)
	}
	out := make([][]float32, count)
	off := 8
	for i := range out {
		v := make([]float32, dims)
		for j := range v {
			v[j] = math.Float32frombits(wire.Uint32(payload[off:]))
			off += 4
		}
		out[i] = v
	}
	return out, nil
}

// EncodeResults packs top-K rows (featureID, score, objectID) into a
// completion payload — the 16-byte result rows getResults DMAs to the host.
func EncodeResults(ids []int64, scores []float32, objects []uint64) ([]byte, error) {
	if len(ids) != len(scores) || len(ids) != len(objects) {
		return nil, fmt.Errorf("proto: mismatched result columns")
	}
	buf := make([]byte, 4+20*len(ids))
	wire.PutUint32(buf[0:], uint32(len(ids)))
	off := 4
	for i := range ids {
		wire.PutUint64(buf[off:], uint64(ids[i]))
		wire.PutUint32(buf[off+8:], math.Float32bits(scores[i]))
		wire.PutUint64(buf[off+12:], objects[i])
		off += 20
	}
	return buf, nil
}

// DecodeResults unpacks a result payload.
func DecodeResults(payload []byte) (ids []int64, scores []float32, objects []uint64, err error) {
	if len(payload) < 4 {
		return nil, nil, nil, fmt.Errorf("proto: result payload too short")
	}
	n := int(wire.Uint32(payload[0:]))
	if len(payload) != 4+20*n {
		return nil, nil, nil, fmt.Errorf("proto: result payload %d bytes, want %d", len(payload), 4+20*n)
	}
	off := 4
	for i := 0; i < n; i++ {
		ids = append(ids, int64(wire.Uint64(payload[off:])))
		scores = append(scores, math.Float32frombits(wire.Uint32(payload[off+8:])))
		objects = append(objects, wire.Uint64(payload[off+12:]))
		off += 20
	}
	return ids, scores, objects, nil
}
