package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Transport carries commands to the device and returns completions.
type Transport interface {
	Submit(Command) (Completion, error)
}

// Loopback is the in-process transport: commands execute directly on the
// attached handler, the way a kernel driver invokes an emulated device.
type Loopback struct {
	Handler *Handler
}

// Submit implements Transport.
func (l Loopback) Submit(c Command) (Completion, error) {
	if l.Handler == nil {
		return Completion{}, fmt.Errorf("proto: loopback has no handler")
	}
	return l.Handler.Execute(c), nil
}

// Stream is a wire transport over any duplex byte stream (net.Conn,
// net.Pipe, …): commands and completions travel in their NVMe-like wire
// encoding, one request in flight at a time.
//
// Both directions are buffered: a command leaves in one Write, and a
// completion's header, detail and payload are decoded from one buffered
// read of the stream rather than one read each.
//
// A Stream is NOT safe for concurrent Submit calls — the shared buffers and
// the in-order completion read assume strict request-response use. The
// Client's mutex provides that serialization; drive a shared Stream through
// one Client (or add external locking).
type Stream struct {
	br *bufio.Reader
	bw *bufio.Writer
}

// NewStream wraps a duplex stream.
func NewStream(rw io.ReadWriter) *Stream {
	return &Stream{br: bufio.NewReader(rw), bw: bufio.NewWriter(rw)}
}

// Submit implements Transport.
func (s *Stream) Submit(c Command) (Completion, error) {
	buf, err := MarshalCommand(c)
	if err != nil {
		return Completion{}, err
	}
	if _, err := s.bw.Write(buf); err != nil {
		return Completion{}, err
	}
	if err := s.bw.Flush(); err != nil {
		return Completion{}, err
	}
	return UnmarshalCompletion(s.br)
}

// Serve runs the device side of a Stream transport until the stream closes:
// it decodes commands, executes them on the handler, and writes completions.
// Reads go through a buffer, so a frame costs one read of the stream however
// many fields it has.
func Serve(rw io.ReadWriter, h *Handler) error {
	br, bw := bufio.NewReader(rw), bufio.NewWriter(rw)
	for {
		cmd, err := UnmarshalCommand(br)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		buf, err := MarshalCompletion(h.Execute(cmd))
		if err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// ErrDeadlineExceeded marks a command attempt that did not complete within
// the client's per-command deadline.
var ErrDeadlineExceeded = errors.New("proto: command deadline exceeded")

// RetryPolicy governs the client's handling of transport failures. The zero
// value submits each command exactly once with no deadline — the historical
// behavior.
//
// Retries apply only to idempotent operations (readDB, query, getResults):
// re-submitting one of those after a lost frame re-executes a pure read or
// re-issues the same scan. Mutating operations (writeDB, appendDB,
// loadModel, setQC) are never retried — the client cannot know whether the
// device executed a command whose completion was lost, so their transport
// errors surface to the caller, who owns the resubmission decision.
type RetryPolicy struct {
	// MaxAttempts caps total submissions per idempotent command
	// (≤ 1 means a single attempt).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it (exponential backoff) up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff bounds the backoff growth (0 = no cap).
	MaxBackoff time.Duration
	// Deadline bounds each attempt's round trip (0 = wait forever).
	// An attempt that exceeds it fails with ErrDeadlineExceeded.
	Deadline time.Duration
}

// DefaultRetryPolicy returns a policy suited to the fault-injection
// experiments: four attempts, 1 ms base backoff capped at 50 ms, and a
// one-second per-attempt deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Deadline:    time.Second,
	}
}

// backoff returns the sleep before retry attempt n (n ≥ 1).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 1; i < n; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// retryable reports whether an operation may be transparently re-submitted
// after a transport failure.
func retryable(op Opcode) bool {
	switch op {
	case OpReadDB, OpQuery, OpGetResults:
		return true
	}
	return false
}

// Client is the host-side library: typed wrappers that build commands and
// decode completions, mirroring the Table 2 API over any transport.
//
// Concurrency contract: a Client is safe for concurrent use. A mutex
// serializes submissions — one command is in flight at a time, matching a
// single-depth NVMe submission queue — so concurrent callers never
// interleave frames on a shared Stream or observe another caller's CID.
// Retry backoff and deadline waits happen while holding the lock, keeping
// the transport strictly request-response.
type Client struct {
	T Transport
	// Retry configures deadlines and idempotent-command retries; the zero
	// value means one attempt, no deadline.
	Retry RetryPolicy

	mu      sync.Mutex
	nextCID uint16
	// straggler holds the result channel of an attempt abandoned by a
	// deadline; the next submission drains it (discarding the late
	// completion) before touching the transport again.
	straggler chan submitOutcome

	// reg and tracer, when attached (AttachObs), receive command/retry/
	// deadline counters and one span per re-submission. The transport runs
	// in host time, so retry spans sit on a wall-clock lane measured from
	// the first submission (epoch), not on a simulated clock.
	reg    *obs.Registry
	tracer *obs.Tracer
	epoch  time.Time
}

// AttachObs installs the metrics registry and span tracer on the client.
func (c *Client) AttachObs(reg *obs.Registry, tr *obs.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = reg
	c.tracer = tr
}

// wallNow converts host time since the client's first submission to the
// tracer's picosecond time base.
func (c *Client) wallNow() sim.Time {
	return sim.Time(time.Since(c.epoch) * 1000) // ns → ps
}

type submitOutcome struct {
	cpl Completion
	err error
}

// NewClient builds a client over a transport.
func NewClient(t Transport) *Client { return &Client{T: t} }

// NewResilientClient builds a client with the given retry policy.
func NewResilientClient(t Transport, policy RetryPolicy) *Client {
	return &Client{T: t, Retry: policy}
}

func (c *Client) submit(cmd Command) (Completion, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch.IsZero() {
		c.epoch = time.Now()
	}
	c.reg.Counter("proto_commands").Inc()
	attempts := 1
	if retryable(cmd.Op) && c.Retry.MaxAttempts > 1 {
		attempts = c.Retry.MaxAttempts
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		retryStart := c.wallNow()
		if a > 1 {
			c.reg.Counter("proto_retries").Inc()
			time.Sleep(c.Retry.backoff(a - 1))
		}
		c.nextCID++
		cmd.CID = c.nextCID
		cpl, err := c.attempt(cmd)
		if a > 1 && c.tracer != nil {
			c.tracer.Add(obs.Span{
				Name: obs.SpanRetry, Cat: "proto", TID: int64(cmd.Op),
				Start: retryStart, Dur: sim.Duration(c.wallNow() - retryStart),
				Args: map[string]string{
					"op":      cmd.Op.String(),
					"attempt": fmt.Sprint(a),
					"ok":      fmt.Sprint(err == nil),
				},
			})
		}
		if err != nil {
			if errors.Is(err, ErrDeadlineExceeded) {
				c.reg.Counter("proto_deadlines").Inc()
			}
			lastErr = err
			continue
		}
		if cpl.CID != cmd.CID {
			lastErr = fmt.Errorf("proto: completion CID %d for command %d", cpl.CID, cmd.CID)
			continue
		}
		// A decoded completion is the device's definitive answer; status
		// errors are never retried.
		return cpl, cpl.Err()
	}
	c.reg.Counter("proto_failures").Inc()
	if attempts > 1 {
		return Completion{}, fmt.Errorf("proto: %s failed after %d attempts: %w", cmd.Op, attempts, lastErr)
	}
	return Completion{}, lastErr
}

// attempt runs one transport round trip, bounded by the per-command
// deadline. On expiry the in-flight attempt is abandoned — its eventual
// result is drained and discarded before the next attempt — and
// ErrDeadlineExceeded is returned.
func (c *Client) attempt(cmd Command) (Completion, error) {
	if c.straggler != nil {
		out := <-c.straggler
		c.straggler = nil
		_ = out // late completion of an abandoned attempt: discard
	}
	if c.Retry.Deadline <= 0 {
		return c.T.Submit(cmd)
	}
	ch := make(chan submitOutcome, 1)
	go func() {
		cpl, err := c.T.Submit(cmd)
		ch <- submitOutcome{cpl, err}
	}()
	timer := time.NewTimer(c.Retry.Deadline)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.cpl, out.err
	case <-timer.C:
		c.straggler = ch
		return Completion{}, fmt.Errorf("%w: %s after %v", ErrDeadlineExceeded, cmd.Op, c.Retry.Deadline)
	}
}

// WriteDB creates a feature database (writeDB).
func (c *Client) WriteDB(features [][]float32) (ftl.DBID, error) {
	payload, err := EncodeFeatures(features)
	if err != nil {
		return 0, err
	}
	cpl, err := c.submit(Command{Op: OpWriteDB, Payload: payload})
	if err != nil {
		return 0, err
	}
	return ftl.DBID(cpl.Value), nil
}

// AppendDB appends features (appendDB).
func (c *Client) AppendDB(db ftl.DBID, features [][]float32) error {
	payload, err := EncodeFeatures(features)
	if err != nil {
		return err
	}
	_, err = c.submit(Command{Op: OpAppendDB, DB: uint64(db), Payload: payload})
	return err
}

// ReadDB reads a feature range (readDB).
func (c *Client) ReadDB(db ftl.DBID, start, count int64) ([][]float32, error) {
	cpl, err := c.submit(Command{Op: OpReadDB, DB: uint64(db),
		Args: [4]uint64{uint64(start), uint64(count)}})
	if err != nil {
		return nil, err
	}
	return DecodeFeatures(cpl.Payload)
}

// LoadModel ships a serialized SCN (loadModel).
func (c *Client) LoadModel(blob []byte) (core.ModelID, error) {
	cpl, err := c.submit(Command{Op: OpLoadModel, Payload: blob})
	if err != nil {
		return 0, err
	}
	return core.ModelID(cpl.Value), nil
}

// LoadModelNetwork marshals and ships an in-memory network.
func (c *Client) LoadModelNetwork(net *nn.Network) (core.ModelID, error) {
	blob, err := nn.Marshal(net)
	if err != nil {
		return 0, err
	}
	return c.LoadModel(blob)
}

// Query submits an intelligent query (query). level may be nil for the
// engine default.
func (c *Client) Query(qfv []float32, k int, model core.ModelID, db ftl.DBID,
	start, end int64, level *accel.Level) (core.QueryID, error) {
	payload, err := EncodeFeatures([][]float32{qfv})
	if err != nil {
		return 0, err
	}
	var lv uint64
	if level != nil {
		lv = uint64(*level) + 1
	}
	cpl, err := c.submit(Command{
		Op: OpQuery, DB: uint64(db), Model: uint64(model),
		Args:    [4]uint64{uint64(k), uint64(start), uint64(end), lv},
		Payload: payload,
	})
	if err != nil {
		return 0, err
	}
	return core.QueryID(cpl.Value), nil
}

// Results is the host-side view of a completed query.
type Results struct {
	IDs      []int64
	Scores   []float32
	Objects  []uint64
	CacheHit bool
	Latency  sim.Duration
}

// GetResults retrieves a query's top-K (getResults).
func (c *Client) GetResults(q core.QueryID) (Results, error) {
	cpl, err := c.submit(Command{Op: OpGetResults, Args: [4]uint64{uint64(q)}})
	if err != nil {
		return Results{}, err
	}
	ids, scores, objects, err := DecodeResults(cpl.Payload)
	if err != nil {
		return Results{}, err
	}
	return Results{
		IDs: ids, Scores: scores, Objects: objects,
		CacheHit: cpl.Value&(1<<63) != 0,
		Latency:  sim.Duration(cpl.Value&^(1<<63)) * sim.Nanosecond,
	}, nil
}

// SetQC configures the query cache (setQC). threshold and accuracy are
// carried in milli-units on the wire.
func (c *Client) SetQC(qcn *nn.Network, accuracy float64, entries int, threshold float64) error {
	blob, err := nn.Marshal(qcn)
	if err != nil {
		return err
	}
	_, err = c.submit(Command{
		Op:      OpSetQC,
		Args:    [4]uint64{uint64(entries), uint64(threshold*1000 + 0.5), uint64(accuracy*1000 + 0.5)},
		Payload: blob,
	})
	return err
}
