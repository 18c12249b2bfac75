package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Trace files. The paper collects query traces from applications running on
// the baseline system and feeds them to the simulator's query engine (§5);
// this is the corresponding record/replay format — a JSON header line with
// the generation config followed by one JSON line per query.

type traceHeader struct {
	Version int         `json:"version"`
	Config  TraceConfig `json:"config"`
	Queries int         `json:"queries"`
}

const traceFileVersion = 1

// Save writes the trace in the line-delimited JSON format.
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{
		Version: traceFileVersion,
		Config:  t.Config,
		Queries: len(t.Queries),
	}); err != nil {
		return err
	}
	for i := range t.Queries {
		if err := enc.Encode(&t.Queries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadTrace reads a trace written by Save.
func LoadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr traceHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if hdr.Version != traceFileVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d", hdr.Version)
	}
	if hdr.Queries < 0 {
		return nil, fmt.Errorf("workload: negative query count %d", hdr.Queries)
	}
	// The slice grows as queries decode: the header's count is only what the
	// file claims, and pre-sizing from it would let one header line ask for
	// any amount of memory.
	tr := &Trace{Config: hdr.Config}
	for i := 0; i < hdr.Queries; i++ {
		var q Query
		if err := dec.Decode(&q); err != nil {
			return nil, fmt.Errorf("workload: reading trace query %d: %w", i, err)
		}
		tr.Queries = append(tr.Queries, q)
	}
	return tr, nil
}
