// Package qhist is the persistent query-history store. Every query the
// engine answers is recorded in a hot/cold layout: a compact fixed-width
// metadata record (hot, always resident, cheap to mine) plus a variable-
// length payload holding the full query vector and top-K result (cold,
// touched only on prefetch or audit). The store retains a fixed window of
// the most recent records and retires the oldest as new ones arrive, so its
// memory, its mining cost and its image are bounded however long the engine
// runs. It serializes to a single checksummed image that rides inside the
// FTL metadata snapshot, so history survives engine restarts; mining the
// records yields the statistics that drive learned cache admission,
// prefetch, and heat-directed placement.
package qhist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/topk"
)

// ErrCorrupt reports that a persisted history image (or payload) failed
// validation. Callers must treat it as "history unavailable" and degrade to
// cold-start behavior; it never indicates in-memory state damage.
var ErrCorrupt = errors.New("qhist: corrupt history image")

// RecordBytes is the fixed hot-record width: 12 little-endian 64-bit words.
const RecordBytes = 96

// FlagHit marks a query answered from the query cache.
const FlagHit uint32 = 1 << 0

// FlagRanged marks a query submitted with a database sub-range, which the
// record does not keep.
const FlagRanged uint32 = 1 << 1

// Record is one fixed-width hot history entry. All fields are plain values
// so a []Record mines with zero pointer chasing; the payload lives in the
// cold region addressed by PayloadOff/PayloadLen.
type Record struct {
	Seq        uint64 // append sequence number, assigned by Append; consecutive, never reused
	Time       int64  // simulated completion timestamp, picoseconds
	DB         uint64 // database the query scanned
	Ident      uint64 // that database's identity: the content the answer was computed over
	Model      uint64 // SCN model used
	Group      uint64 // coarse query-group fingerprint (GroupOf)
	K          uint32 // requested top-K
	Flags      uint32 // FlagHit et al.
	Latency    int64  // total simulated latency, picoseconds
	TopFeature int64  // best-scoring feature index, -1 when empty
	Digest     uint64 // FNV-1a digest of the top-K list
	PayloadOff int64  // cold-region byte offset, assigned by Append
	PayloadLen int64  // cold payload length in bytes
}

// Hit reports whether the record was served from the query cache.
func (r Record) Hit() bool { return r.Flags&FlagHit != 0 }

func (r Record) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], r.Seq)
	le.PutUint64(b[8:], uint64(r.Time))
	le.PutUint64(b[16:], r.DB)
	le.PutUint64(b[24:], r.Model)
	le.PutUint64(b[32:], r.Group)
	le.PutUint32(b[40:], r.K)
	le.PutUint32(b[44:], r.Flags)
	le.PutUint64(b[48:], uint64(r.Latency))
	le.PutUint64(b[56:], uint64(r.TopFeature))
	le.PutUint64(b[64:], r.Digest)
	le.PutUint64(b[72:], uint64(r.PayloadOff))
	le.PutUint64(b[80:], uint64(r.PayloadLen))
	le.PutUint64(b[88:], r.Ident)
}

func unmarshalRecord(b []byte) Record {
	le := binary.LittleEndian
	return Record{
		Seq:        le.Uint64(b[0:]),
		Time:       int64(le.Uint64(b[8:])),
		DB:         le.Uint64(b[16:]),
		Model:      le.Uint64(b[24:]),
		Group:      le.Uint64(b[32:]),
		K:          le.Uint32(b[40:]),
		Flags:      le.Uint32(b[44:]),
		Latency:    int64(le.Uint64(b[48:])),
		TopFeature: int64(le.Uint64(b[56:])),
		Digest:     le.Uint64(b[64:]),
		PayloadOff: int64(le.Uint64(b[72:])),
		PayloadLen: int64(le.Uint64(b[80:])),
		Ident:      le.Uint64(b[88:]),
	}
}

// chunkBytes is the cold arena's chunk size. Growing the arena takes one
// more chunk and never moves a byte already stored, so an Append copies only
// its own payload however much the store holds.
const chunkBytes = 1 << 20

// retainRecords is the retention window: the store keeps the most recent
// retainRecords records and retires the oldest on every append past that. A
// record that old weighs 2^-32 of a fresh one in AdmissionScore.
const retainRecords = 32 * DefaultHalfLifeRecords

// Store holds the hot record window and the cold payload arena. It is not
// internally synchronized: the owning engine serializes access under its
// own lock.
//
// The hot records are the suffix buf[head:] of one backing array of at most
// twice the window: retiring advances head, and when the array is full the
// live window slides back to its front, so Records is always one contiguous
// slice and an append copies one record amortized.
//
// The arena is a queue of chunks, oldest first. A payload never straddles two
// chunks — one that does not fit the current chunk's tail opens a new chunk
// (sized to the payload when it exceeds chunkBytes) — so every payload is one
// contiguous, stable view. A chunk whose last payload has retired goes to the
// free list and is the next one opened, so past the window the arena is a
// ring of reused buffers. PayloadOff stays the LOGICAL offset, the payload's
// position in the concatenation of every payload ever appended: the unused
// chunk tails are an in-memory detail that Snapshot bytes, ColdBytes and the
// records never see.
type Store struct {
	window int      // retained-record bound, retainRecords outside tests
	buf    []Record // backing array of the hot window
	head   int      // buf[head:] are the retained records
	first  uint64   // Seq of buf[head], which is also the count of retired records
	chunks [][]byte // live chunks, oldest first; len(chunk) is its used prefix
	starts []int64  // logical offset of each live chunk's first byte
	free   [][]byte // retired chunkBytes buffers awaiting reuse
	base   int64    // logical offset of the oldest retained payload byte
	cold   int64    // logical arena end: the sum of all payload lengths ever appended
}

// NewStore returns an empty history store.
func NewStore() *Store { return newStore(retainRecords) }

func newStore(window int) *Store { return &Store{window: window} }

// alloc reserves n contiguous arena bytes at the logical end and returns
// them for the caller to fill.
func (s *Store) alloc(n int) []byte {
	if n == 0 {
		return nil
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last])+n > cap(s.chunks[last]) {
		var c []byte
		if f := len(s.free) - 1; f >= 0 && n <= chunkBytes {
			c, s.free = s.free[f], s.free[:f]
		} else {
			c = make([]byte, 0, max(n, chunkBytes))
		}
		s.chunks = append(s.chunks, c)
		s.starts = append(s.starts, s.cold)
		last++
	}
	c := s.chunks[last]
	s.chunks[last] = c[:len(c)+n]
	s.cold += int64(n)
	return s.chunks[last][len(c):]
}

// retire drops the oldest record and recycles every chunk that now holds
// only retired payloads. The newest chunk is the one being filled and stays.
func (s *Store) retire() {
	r := s.buf[s.head]
	s.head++
	s.first++
	s.base = r.PayloadOff + r.PayloadLen
	for len(s.chunks) > 1 && s.starts[1] <= s.base {
		if c := s.chunks[0]; cap(c) == chunkBytes {
			s.free = append(s.free, c[:0])
		}
		// Shift down rather than reslice, so the two tables keep their
		// backing arrays and a steady-state append allocates nothing.
		s.chunks = s.chunks[:copy(s.chunks, s.chunks[1:])]
		s.starts = s.starts[:copy(s.starts, s.starts[1:])]
	}
}

// push assigns r's Seq and the placement of the payloadLen bytes alloc just
// reserved, and stores the record, retiring the oldest one when the window
// is full.
func (s *Store) push(r Record, payloadLen int) Record {
	r.Seq = s.NextSeq()
	r.PayloadOff = s.cold - int64(payloadLen)
	r.PayloadLen = int64(payloadLen)
	if s.Len() == s.window {
		s.retire()
	}
	if len(s.buf) == cap(s.buf) {
		if c := cap(s.buf); c < 2*s.window {
			grown := make([]Record, s.Len(), min(max(2*c, 64), 2*s.window))
			copy(grown, s.buf[s.head:])
			s.buf, s.head = grown, 0
		} else {
			// A full double-width array holds at least a window of retired
			// records in front: slide the live ones back over them.
			s.buf = s.buf[:copy(s.buf, s.buf[s.head:])]
			s.head = 0
		}
	}
	s.buf = append(s.buf, r)
	return r
}

// Append assigns the record's Seq and payload placement, stores it, and
// returns the completed record.
func (s *Store) Append(r Record, payload []byte) Record {
	copy(s.alloc(len(payload)), payload)
	return s.push(r, len(payload))
}

// AppendQuery is Append(r, EncodePayload(qfv, topK)) with the payload
// encoded straight into the arena.
func (s *Store) AppendQuery(r Record, qfv []float32, topK []topk.Entry) Record {
	n := PayloadBytes(len(qfv), len(topK))
	encodePayload(s.alloc(n), qfv, topK)
	return s.push(r, n)
}

// Len returns the number of retained records.
func (s *Store) Len() int { return len(s.buf) - s.head }

// First returns the Seq of the oldest retained record — equally, how many
// records have retired. Records()[i].Seq is First() + i.
func (s *Store) First() uint64 { return s.first }

// NextSeq returns the sequence number the next Append will receive — the
// count of records ever appended; mining uses it as the current logical
// "now" for recency decay.
func (s *Store) NextSeq() uint64 { return s.first + uint64(s.Len()) }

// Records returns the retained hot records, oldest first. Callers must not
// mutate the slice and must not retain it across Appends.
func (s *Store) Records() []Record { return s.buf[s.head:] }

// HotBytes and ColdBytes report the retained sizes of the two regions.
func (s *Store) HotBytes() int64  { return int64(s.Len()) * RecordBytes }
func (s *Store) ColdBytes() int64 { return s.cold - s.base }

// Payload returns the cold payload bytes for r: a view into the arena that
// stays valid and unchanged until r retires (live chunks never move). A
// retired record, a range outside the retained arena, or one that is not
// wholly inside one chunk (no Append produces such a record) wraps
// ErrCorrupt.
func (s *Store) Payload(r Record) ([]byte, error) {
	if r.Seq < s.first {
		return nil, fmt.Errorf("%w: record %d retired (oldest retained is %d)", ErrCorrupt, r.Seq, s.first)
	}
	if r.PayloadOff < s.base || r.PayloadLen < 0 || r.PayloadLen > s.cold-r.PayloadOff {
		return nil, fmt.Errorf("%w: payload [%d,+%d) outside retained heap [%d,%d)",
			ErrCorrupt, r.PayloadOff, r.PayloadLen, s.base, s.cold)
	}
	if r.PayloadLen == 0 {
		return nil, nil
	}
	// The last chunk starting at or before the offset holds its first byte.
	ci := sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > r.PayloadOff }) - 1
	local := r.PayloadOff - s.starts[ci]
	if c := s.chunks[ci]; r.PayloadLen <= int64(len(c))-local {
		return c[local : local+r.PayloadLen : local+r.PayloadLen], nil
	}
	return nil, fmt.Errorf("%w: payload [%d,+%d) straddles an arena chunk",
		ErrCorrupt, r.PayloadOff, r.PayloadLen)
}

const (
	snapshotMagic   = "DSQH"
	snapshotVersion = 3
	headerBytes     = 4 + 4 + 8 + 8 // magic, version, first retained Seq, record count
)

// Snapshot serializes the retained window: magic, version, the first
// retained Seq, the hot region, the cold region, and a trailing FNV-1a
// checksum over everything before it. The encoding is fully deterministic
// for a given sequence of Appends.
func (s *Store) Snapshot() []byte {
	le := binary.LittleEndian
	records := s.Records()
	out := make([]byte, headerBytes+len(records)*RecordBytes+8+int(s.ColdBytes())+8)
	copy(out, snapshotMagic)
	le.PutUint32(out[4:], snapshotVersion)
	le.PutUint64(out[8:], s.first)
	le.PutUint64(out[16:], uint64(len(records)))
	off := headerBytes
	for i := range records {
		records[i].marshal(out[off:])
		off += RecordBytes
	}
	le.PutUint64(out[off:], uint64(s.ColdBytes()))
	off += 8
	for i, c := range s.chunks {
		if i == 0 {
			c = c[s.base-s.starts[0]:] // the oldest chunk may lead with retired payloads
		}
		off += copy(out[off:], c)
	}
	h := fnv.New64a()
	h.Write(out[:off])
	le.PutUint64(out[off:], h.Sum64())
	return out
}

// Restore parses a Snapshot image. Any framing, bounds, or checksum failure
// returns an error wrapping ErrCorrupt — never a panic — so callers can
// degrade to an empty (cold-start) history. The image must be a window
// Append could have left: no more records than the window holds, Seq
// consecutive from the header's first retained Seq, and payloads dense and
// in record order from the first record's offset (they are re-placed into
// the arena one record at a time). Ranges that overlap, run backwards, leave
// gaps or fall outside the cold region are corrupt.
func Restore(data []byte) (*Store, error) { return restore(data, retainRecords) }

func restore(data []byte, window int) (*Store, error) {
	le := binary.LittleEndian
	if len(data) < headerBytes+8+8 {
		return nil, fmt.Errorf("%w: %d-byte image too short", ErrCorrupt, len(data))
	}
	if string(data[:4]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := le.Uint32(data[4:]); v != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	first, count := le.Uint64(data[8:]), le.Uint64(data[16:])
	if count > uint64(window) {
		return nil, fmt.Errorf("%w: %d records exceed the %d-record window", ErrCorrupt, count, window)
	}
	if first > math.MaxUint64-count {
		return nil, fmt.Errorf("%w: first seq %d + %d records overflows", ErrCorrupt, first, count)
	}
	off := uint64(headerBytes)
	if uint64(len(data)) < off+count*RecordBytes+8 {
		return nil, fmt.Errorf("%w: truncated hot region", ErrCorrupt)
	}
	st := newStore(window)
	st.first = first
	st.buf = make([]Record, count)
	for i := range st.buf {
		st.buf[i] = unmarshalRecord(data[off:])
		off += RecordBytes
	}
	plen := le.Uint64(data[off:])
	off += 8
	if rest := uint64(len(data)) - off; rest < 8 || rest-8 != plen {
		return nil, fmt.Errorf("%w: %d bytes after the hot region for a %d-byte cold region", ErrCorrupt, rest, plen)
	}
	cold := data[off : off+plen]
	off += plen
	h := fnv.New64a()
	h.Write(data[:off])
	if got, want := le.Uint64(data[off:]), h.Sum64(); got != want {
		return nil, fmt.Errorf("%w: checksum %#x != %#x", ErrCorrupt, got, want)
	}
	if count > 0 {
		// The window's payloads start where its oldest record says; an empty
		// window has no such record and starts at zero, as a new store does.
		st.base = st.buf[0].PayloadOff
		if st.base < 0 || st.base > math.MaxInt64-int64(plen) {
			return nil, fmt.Errorf("%w: cold region [%d,+%d) outside the offset space", ErrCorrupt, st.base, plen)
		}
	} else if first != 0 {
		return nil, fmt.Errorf("%w: empty window starting at seq %d", ErrCorrupt, first)
	}
	st.cold = st.base
	end := st.base + int64(plen)
	for i, r := range st.buf {
		if r.Seq != first+uint64(i) {
			return nil, fmt.Errorf("%w: record %d has seq %d, want %d", ErrCorrupt, i, r.Seq, first+uint64(i))
		}
		// st.cold is where Append would have put this payload; comparing the
		// length against the remainder cannot overflow, unlike off+len.
		if r.PayloadOff != st.cold || r.PayloadLen < 0 || r.PayloadLen > end-st.cold {
			return nil, fmt.Errorf("%w: record %d payload [%d,+%d) not at cold offset %d of [%d,%d)",
				ErrCorrupt, i, r.PayloadOff, r.PayloadLen, st.cold, st.base, end)
		}
		copy(st.alloc(int(r.PayloadLen)), cold[r.PayloadOff-st.base:])
	}
	if st.cold != end {
		return nil, fmt.Errorf("%w: %d cold bytes belong to no record", ErrCorrupt, end-st.cold)
	}
	return st, nil
}

// PayloadBytes is the encoded size of a cold payload with the given query
// dimensions and top-K length.
func PayloadBytes(dims, k int) int { return 4 + 4*dims + 4 + 20*k }

// EncodePayload serializes a query's cold payload: the full query feature
// vector plus the top-K result list.
func EncodePayload(qfv []float32, topK []topk.Entry) []byte {
	out := make([]byte, PayloadBytes(len(qfv), len(topK)))
	encodePayload(out, qfv, topK)
	return out
}

// encodePayload writes the payload into out, which is PayloadBytes long.
func encodePayload(out []byte, qfv []float32, topK []topk.Entry) {
	le := binary.LittleEndian
	le.PutUint32(out, uint32(len(qfv)))
	off := 4
	for _, v := range qfv {
		le.PutUint32(out[off:], math.Float32bits(v))
		off += 4
	}
	le.PutUint32(out[off:], uint32(len(topK)))
	off += 4
	for _, e := range topK {
		le.PutUint64(out[off:], uint64(e.FeatureID))
		le.PutUint32(out[off+8:], math.Float32bits(e.Score))
		le.PutUint64(out[off+12:], e.ObjectID)
		off += 20
	}
}

// DecodePayload reverses EncodePayload; malformed input wraps ErrCorrupt.
func DecodePayload(p []byte) (qfv []float32, topK []topk.Entry, err error) {
	le := binary.LittleEndian
	if len(p) < 8 {
		return nil, nil, fmt.Errorf("%w: %d-byte payload too short", ErrCorrupt, len(p))
	}
	dims := le.Uint32(p)
	off := uint32(4)
	if uint32(len(p)) < off+4*dims+4 {
		return nil, nil, fmt.Errorf("%w: payload truncated before vector end", ErrCorrupt)
	}
	qfv = make([]float32, dims)
	for i := range qfv {
		qfv[i] = math.Float32frombits(le.Uint32(p[off:]))
		off += 4
	}
	k := le.Uint32(p[off:])
	off += 4
	if uint32(len(p)) != off+20*k {
		return nil, nil, fmt.Errorf("%w: payload length %d != expected %d", ErrCorrupt, len(p), off+20*k)
	}
	topK = make([]topk.Entry, k)
	for i := range topK {
		topK[i] = topk.Entry{
			FeatureID: int64(le.Uint64(p[off:])),
			Score:     math.Float32frombits(le.Uint32(p[off+8:])),
			ObjectID:  le.Uint64(p[off+12:]),
		}
		off += 20
	}
	return qfv, topK, nil
}

// Digest fingerprints a top-K list (FNV-1a over the serialized entries), so
// outcome equality can be checked from hot records alone.
func Digest(topK []topk.Entry) uint64 {
	h := fnv.New64a()
	var b [20]byte
	le := binary.LittleEndian
	for _, e := range topK {
		le.PutUint64(b[0:], uint64(e.FeatureID))
		le.PutUint32(b[8:], math.Float32bits(e.Score))
		le.PutUint64(b[12:], e.ObjectID)
		h.Write(b[:])
	}
	return h.Sum64()
}

// groupBin quantizes one vector element into a coarse bin (width 0.25) so
// that small jitter usually lands repeats of the same semantic query in the
// same group. NaN and bins outside int32 are MinInt32: Go leaves that
// conversion to the platform, and a group key is persisted in history
// records and checkpoint images, so it must not depend on the machine.
// MinInt32 is what amd64 has always given them.
func groupBin(v float32) int32 {
	r := math.Round(float64(v) * 4)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int32(r)
}

// FNV-1a's 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// GroupOf fingerprints a query vector into its history group: FNV-1a over
// the coarsely quantized dimensions, each bin's four little-endian bytes.
// Deterministic; identical vectors always share a group. The hash is
// computed inline: hash/fnv gives the same value through one interface
// Write per dimension.
func GroupOf(qfv []float32) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range qfv {
		b := uint32(groupBin(v))
		for range 4 {
			h ^= uint64(b & 0xff)
			h *= fnvPrime64
			b >>= 8
		}
	}
	return h
}

// GroupStat aggregates one query group's history.
type GroupStat struct {
	Count   int64  // total queries observed in the group
	Hits    int64  // of those, cache hits
	LastSeq uint64 // most recent record's sequence number
}

// DefaultHalfLifeRecords is the recency half-life used by AdmissionScore,
// measured in appended records: a group unseen for this many records loses
// half its weight. Sequence distance (not wall time) keeps the score
// independent of device speed.
const DefaultHalfLifeRecords = 256

// AdmissionScore combines frequency (the group's observed count), recency
// (exponential decay over sequence distance), and the group's observed
// cache accuracy (Laplace-smoothed hit ratio, the per-cluster QCN accuracy
// mined from history). Higher scores deserve cache residency more.
func (g GroupStat) AdmissionScore(nowSeq uint64) float64 {
	if g.Count <= 0 {
		return 0
	}
	age := uint64(0)
	if nowSeq > g.LastSeq {
		age = nowSeq - g.LastSeq - 1
	}
	decay := decayOf(age)
	accuracy := float64(g.Hits+1) / float64(g.Count+2)
	return float64(g.Count) * decay * accuracy
}

// decayTable holds AdmissionScore's recency decay for every age a retained
// record can have, built with the very expression decayOf falls back to,
// so a read is bit-identical to computing it.
var decayTable = func() *[retainRecords]float64 {
	var t [retainRecords]float64
	for age := range t {
		t[age] = math.Exp2(-float64(age) / DefaultHalfLifeRecords)
	}
	return &t
}()

// decayOf is 2^(-age/DefaultHalfLifeRecords): a table read inside the
// retention window, math.Exp2 past it.
func decayOf(age uint64) float64 {
	if age < retainRecords {
		return decayTable[age]
	}
	return math.Exp2(-float64(age) / DefaultHalfLifeRecords)
}

// MineGroups folds the hot records into per-group statistics. Pure function
// of the record slice, so identical histories always mine to identical
// admission decisions.
func MineGroups(records []Record) map[uint64]GroupStat {
	out := make(map[uint64]GroupStat, 16)
	for _, r := range records {
		Mine(out, r)
	}
	return out
}

// Mine folds r, the newest record, into mined: a map holding MineGroups of
// the records before r ends up holding MineGroups of them and r.
func Mine(mined map[uint64]GroupStat, r Record) {
	g := mined[r.Group]
	g.Count++
	if r.Hit() {
		g.Hits++
	}
	g.LastSeq = r.Seq
	mined[r.Group] = g
}

// Unmine removes r, the oldest record folded into mined, from its group: the
// inverse of Mine for a record leaving the front of the window. A group's
// newest record is the last of its records to leave, so LastSeq stands until
// the count reaches zero and the group goes with it.
func Unmine(mined map[uint64]GroupStat, r Record) {
	g := mined[r.Group]
	if g.Count <= 1 {
		delete(mined, r.Group)
		return
	}
	g.Count--
	if r.Hit() {
		g.Hits--
	}
	mined[r.Group] = g
}

// RankGroups orders mined groups by descending admission score, breaking
// ties by ascending group id for determinism.
func RankGroups(mined map[uint64]GroupStat, nowSeq uint64) []uint64 {
	ids := make([]uint64, 0, len(mined))
	for id := range mined {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		si, sj := mined[ids[i]].AdmissionScore(nowSeq), mined[ids[j]].AdmissionScore(nowSeq)
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// FeatureHeat folds the records of one database identity into a per-feature
// demand vector: each votes for its top-scoring feature. The result feeds
// reorg.StripeHeat for heat-directed placement.
func FeatureHeat(records []Record, ident uint64, features int64) []int64 {
	heat := make([]int64, features)
	for _, r := range records {
		if r.Ident == ident && r.TopFeature >= 0 && r.TopFeature < features {
			heat[r.TopFeature]++
		}
	}
	return heat
}
