// Package remote is the cross-machine shard transport: a length-prefixed
// JSON-over-TCP protocol carrying the shard.Worker job/result structs — the
// max, band and repair scans of ζ or ϕ — between a coordinator and remote worker
// processes, each holding its own replica of the session's decay space.
// Affectance matrices never cross the wire: the coordinator builds them
// from its own copy of the space, since their O(links²) output costs more
// to ship than to compute.
//
// The package has three layers:
//
//   - the wire protocol (this file + client.go + server.go): framed
//     request/response exchanges multiplexed over one TCP connection, with
//     a Sync handshake shipping a full-space snapshot to a (re)joining
//     worker and version-stamped Mutate batches keeping replicas current —
//     every scan request carries the coordinator's replica version and a
//     worker whose replica is behind answers with a typed stale-version
//     error instead of scanning stale state;
//
//   - the fault-tolerance layer (pool.go): a Pool of remote workers whose
//     per-slot robust workers enforce per-job deadlines, retry transient
//     failures with capped exponential backoff plus jitter, declare a
//     worker dead after repeated failures and reassign its row-range job
//     to surviving workers — or compute it locally on the coordinator's
//     own replica as graceful degradation — and re-admit a rejoining
//     worker only after a fresh Sync has caught it up past the version
//     fence. Results stay bit-identical under every failure because all
//     replicas hold the same space and the coordinator merges partials by
//     row range, not arrival order;
//
//   - the fault-injection harness (fault.go): a deterministic seeded
//     Transport wrapper injecting drops, delays, error returns,
//     stale-version replies and mid-job connection crashes, driving the
//     remote equivalence wall.
//
// Float arrays on the wire (space snapshots, mutation rows, scan extrema)
// are encoded as base64 of their little-endian IEEE-754 bits rather than
// decimal JSON numbers: bit-exact round-trips by construction (the
// equivalence wall's contract), ±Inf/NaN-safe (encoding/json rejects
// both), and about half the bytes of shortest-decimal encoding.
package remote

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// Protocol methods. Scan methods mirror shard.Worker one-to-one; each
// job names the parameter (ζ or ϕ) it scans.
const (
	methodSync   = "sync"
	methodMutate = "mutate"
	methodPing   = "ping"
	methodCancel = "cancel"

	methodMax    = "max"
	methodBand   = "band"
	methodRepair = "repair"
)

// Error kinds a worker can answer with. The pool maps them to recovery
// actions: stale_version and no_replica trigger a Sync and a retry, the
// rest count as job failures toward declaring the worker dead.
const (
	// KindStale: the worker's replica version doesn't match the version
	// stamped on the request — it missed a mutation batch (or the
	// coordinator restarted). The worker must be re-synced past the fence
	// before it may serve scans again.
	KindStale = "stale_version"
	// KindNoReplica: the worker has no replica yet (a late joiner that
	// never completed the Sync handshake).
	KindNoReplica = "no_replica"
	// KindBadRequest: the request was malformed (undecodable job, unknown
	// method, out-of-range rows).
	KindBadRequest = "bad_request"
	// KindCancelled: the job's context was cancelled server-side.
	KindCancelled = "cancelled"
	// KindInternal: the scan itself failed.
	KindInternal = "internal"
)

// Error is a typed worker-side failure carried over the wire.
type Error struct {
	Kind string
	Msg  string
}

func (e *Error) Error() string { return "remote: " + e.Kind + ": " + e.Msg }

// NeedsSync reports whether err is a worker-side answer that a fresh Sync
// handshake would cure: a stale replica or no replica at all.
func NeedsSync(err error) bool {
	var re *Error
	if errors.As(err, &re) {
		return re.Kind == KindStale || re.Kind == KindNoReplica
	}
	return false
}

// request is one framed call. ID 0 is reserved for fire-and-forget frames
// (cancel), which get no response.
type request struct {
	ID      uint64          `json:"id"`
	Method  string          `json:"method"`
	Version uint64          `json:"v,omitempty"`
	Job     json.RawMessage `json:"job,omitempty"`
}

// response answers the request with the matching ID.
type response struct {
	ID     uint64          `json:"id"`
	Kind   string          `json:"kind,omitempty"`
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Floats is a []float64 that marshals as base64 little-endian IEEE-754
// bits: bit-exact (no decimal round-trip), ±Inf/NaN-safe, and compact.
type Floats []float64

// MarshalJSON implements json.Marshaler.
func (f Floats) MarshalJSON() ([]byte, error) { return wrapBase64(f.bytes()), nil }

// bytes returns the little-endian IEEE-754 bits of f.
func (f Floats) bytes() []byte {
	raw := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return raw
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Floats) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("remote: float array is not a base64 string: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return fmt.Errorf("remote: float array base64: %w", err)
	}
	if len(raw)%8 != 0 {
		return fmt.Errorf("remote: float array payload is %d bytes, not a multiple of 8", len(raw))
	}
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	*f = vals
	return nil
}

// Int32s is a []int32 that marshals as base64 little-endian bytes — the
// column-index and row-start arrays of a tiered snapshot (same reasoning
// as Floats: bit-exact, compact).
type Int32s []int32

// MarshalJSON implements json.Marshaler.
func (f Int32s) MarshalJSON() ([]byte, error) { return wrapBase64(f.bytes()), nil }

// bytes returns the little-endian bytes of f.
func (f Int32s) bytes() []byte {
	raw := make([]byte, 4*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
	}
	return raw
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Int32s) UnmarshalJSON(data []byte) error {
	raw, err := unwrapBase64(data, 4)
	if err != nil {
		return err
	}
	vals := make([]int32, len(raw)/4)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	*f = vals
	return nil
}

// Float32s is a []float32 that marshals as base64 little-endian IEEE-754
// bits — the float32 tail pages of a tiered snapshot.
type Float32s []float32

// MarshalJSON implements json.Marshaler.
func (f Float32s) MarshalJSON() ([]byte, error) { return wrapBase64(f.bytes()), nil }

// bytes returns the little-endian IEEE-754 bits of f.
func (f Float32s) bytes() []byte {
	raw := make([]byte, 4*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float32s) UnmarshalJSON(data []byte) error {
	raw, err := unwrapBase64(data, 4)
	if err != nil {
		return err
	}
	vals := make([]float32, len(raw)/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	*f = vals
	return nil
}

// wrapBase64 encodes raw bytes as a quoted base64 JSON string.
func wrapBase64(raw []byte) []byte { return appendBase64(nil, raw) }

// appendBase64 appends raw to dst as a quoted base64 JSON string.
func appendBase64(dst, raw []byte) []byte {
	dst = slices.Grow(dst, 2+base64.StdEncoding.EncodedLen(len(raw)))
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, raw)
	return append(dst, '"')
}

// unwrapBase64 decodes a quoted base64 JSON string, requiring the payload
// length to be a multiple of stride.
func unwrapBase64(data []byte, stride int) ([]byte, error) {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("remote: packed array is not a base64 string: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("remote: packed array base64: %w", err)
	}
	if len(raw)%stride != 0 {
		return nil, fmt.Errorf("remote: packed array payload is %d bytes, not a multiple of %d", len(raw), stride)
	}
	return raw, nil
}

// TieredSnap is the tiered-session alternative to a dense Flat snapshot:
// the CSR near field, the tail payload (model + flattened point pairs, or
// float32 pages), and the streamed-scan pruning extrema and seed — O(K·n)
// on the wire for a model tail instead of O(n²). The worker rebuilds a
// tier.Space via tier.FromSnapshot and a streamed replica via
// shard.NewStreamedReplicaFrom, so its row-range scans are bit-identical
// to the coordinator's local streamed scans. Tiered sessions are
// immutable, so no Mutate batch ever follows; the version still fences
// scans (a coordinator restart re-Syncs).
type TieredSnap struct {
	Sym       bool            `json:"sym"`
	Cfg       json.RawMessage `json:"cfg"`
	NearStart Int32s          `json:"near_start"`
	NearIdx   Int32s          `json:"near_idx"`
	NearVal   Floats          `json:"near_val"`
	F32       Float32s        `json:"f32,omitempty"`
	Model     json.RawMessage `json:"model,omitempty"`
	Pts       Floats          `json:"pts,omitempty"` // x0,y0,x1,y1,...
	LogMax    Floats          `json:"log_max,omitempty"`
	LogMin    Floats          `json:"log_min,omitempty"`
	FMax      Floats          `json:"f_max,omitempty"`
	FMin      Floats          `json:"f_min,omitempty"`
	Seed      float64         `json:"seed,omitempty"`
	TileRows  int             `json:"tile_rows,omitempty"`
	MaxTiles  int             `json:"max_tiles,omitempty"`
}

// appendJSON appends the snapshot's JSON encoding, as its struct tags
// define it, to dst; see SyncJob.appendJSON for why it bypasses
// encoding/json. Empty arrays and messages are omitted.
func (ts *TieredSnap) appendJSON(dst []byte) []byte {
	dst = fmt.Appendf(dst, `{"sym":%t`, ts.Sym)
	dst = appendRaw(dst, "cfg", ts.Cfg)
	dst = appendPacked(dst, "near_start", ts.NearStart.bytes())
	dst = appendPacked(dst, "near_idx", ts.NearIdx.bytes())
	dst = appendPacked(dst, "near_val", ts.NearVal.bytes())
	dst = appendPacked(dst, "f32", ts.F32.bytes())
	dst = appendRaw(dst, "model", ts.Model)
	dst = appendPacked(dst, "pts", ts.Pts.bytes())
	dst = appendPacked(dst, "log_max", ts.LogMax.bytes())
	dst = appendPacked(dst, "log_min", ts.LogMin.bytes())
	dst = appendPacked(dst, "f_max", ts.FMax.bytes())
	dst = appendPacked(dst, "f_min", ts.FMin.bytes())
	if ts.Seed != 0 {
		dst = fmt.Appendf(dst, `,"seed":%s`, strconv.FormatFloat(ts.Seed, 'g', -1, 64))
	}
	if ts.TileRows != 0 {
		dst = fmt.Appendf(dst, `,"tile_rows":%d`, ts.TileRows)
	}
	if ts.MaxTiles != 0 {
		dst = fmt.Appendf(dst, `,"max_tiles":%d`, ts.MaxTiles)
	}
	return append(dst, '}')
}

// appendPacked appends `,"key":"<base64 of raw>"`, or nothing when raw is
// empty.
func appendPacked(dst []byte, key string, raw []byte) []byte {
	if len(raw) == 0 {
		return dst
	}
	dst = fmt.Appendf(dst, `,%q:`, key)
	return appendBase64(dst, raw)
}

// appendRaw appends `,"key":<msg>`, or nothing when msg is empty.
func appendRaw(dst []byte, key string, msg json.RawMessage) []byte {
	if len(msg) == 0 {
		return dst
	}
	dst = fmt.Appendf(dst, `,%q:`, key)
	return append(dst, msg...)
}

// SyncJob is the full-space snapshot handshake: the coordinator ships its
// space and replica version to a (re)joining worker, which rebuilds its
// replica from scratch. Dense sessions ship the flat matrix; tiered
// sessions ship the O(K·n) Tiered payload instead. Tol is the ζ bisection
// tolerance the worker's scan states must use (it parameterizes the root
// solve, so differing tolerances would break bit-identity).
type SyncJob struct {
	N       int         `json:"n"`
	Tol     float64     `json:"tol"`
	Version uint64      `json:"version"`
	Flat    Floats      `json:"flat,omitempty"`
	Tiered  *TieredSnap `json:"tiered,omitempty"`
}

// appendJSON appends the job's JSON encoding, as its struct tags define
// it, to dst. Snapshots are the largest payload the protocol carries —
// O(n²) bytes for a dense session — so they bypass encoding/json, whose
// encoder builds its output in a pooled buffer that keeps the largest size
// it ever reached: one Sync would leave a snapshot-sized buffer reachable
// for the rest of the process.
func (j *SyncJob) appendJSON(dst []byte) []byte {
	dst = fmt.Appendf(dst, `{"n":%d,"tol":%s,"version":%d`, j.N, strconv.FormatFloat(j.Tol, 'g', -1, 64), j.Version)
	dst = appendPacked(dst, "flat", j.Flat.bytes())
	if j.Tiered != nil {
		dst = append(dst, `,"tiered":`...)
		dst = j.Tiered.appendJSON(dst)
	}
	return append(dst, '}')
}

// RowEdit carries one updated row (or column) of the dense space.
type RowEdit struct {
	Index int    `json:"i"`
	Vals  Floats `json:"vals"`
}

// MutateJob ships one applied session mutation to a worker replica,
// fenced on the replica version: the worker applies it only when its
// version equals BaseVersion, answering KindStale otherwise (it missed an
// earlier batch and must re-Sync). Rows hold the full post-mutation values
// of every dirty row; Cols the full post-mutation values of every dirty
// column (empty when RowsOnly). After applying, the worker patches its
// scan states exactly as the coordinator-side tracker patches its own.
type MutateJob struct {
	BaseVersion uint64    `json:"base_version"`
	Version     uint64    `json:"version"`
	Rows        []RowEdit `json:"rows,omitempty"`
	Cols        []RowEdit `json:"cols,omitempty"`
	Dirty       []int     `json:"dirty"`
	RowsOnly    bool      `json:"rows_only"`
}

// PingResult answers a heartbeat with the worker's replica version (0 when
// it has no replica yet).
type PingResult struct {
	Version uint64 `json:"version"`
	Synced  bool   `json:"synced"`
}

// cancelJob asks the worker to cancel the in-flight request with ID.
type cancelJob struct {
	ID uint64 `json:"id"`
}

// DefaultMaxFrame bounds a single frame (1 GiB): a full-space snapshot at
// n = 8192 is ~720 MB encoded, the largest payload the dense tier ships.
const DefaultMaxFrame = 1 << 30

// encodeJob encodes a request's job: a Sync snapshot by hand (see
// SyncJob.appendJSON), every other job through encoding/json.
func encodeJob(job any) ([]byte, error) {
	if sj, ok := job.(*SyncJob); ok {
		return sj.appendJSON(nil), nil
	}
	return json.Marshal(job)
}

// encodeRequest builds the body of a request frame around an encoded job.
// The envelope is encoded by hand, so a snapshot-sized job never passes
// through encoding/json's pooled buffer. method is one of the protocol's
// method constants.
func encodeRequest(id uint64, method string, version uint64, job []byte) []byte {
	body := fmt.Appendf(make([]byte, 0, len(job)+64), `{"id":%d,"method":%q`, id, method)
	if version != 0 {
		body = fmt.Appendf(body, `,"v":%d`, version)
	}
	body = append(body, `,"job":`...)
	body = append(body, job...)
	return append(body, '}')
}

// writeFrame marshals v and writes it as one length-prefixed frame.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeBody(w, body)
}

// writeBody writes body as one length-prefixed frame.
func writeBody(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// frameChunk is the first buffer readFrame allocates for a frame body.
const frameChunk = 64 << 10

// readFrame reads one length-prefixed frame body, rejecting frames larger
// than maxFrame. The header is untrusted, so the buffer starts at
// frameChunk and doubles only as body bytes actually arrive: a peer that
// claims a 1 GiB frame and sends nothing pins 64 KiB, not 1 GiB.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n > int64(maxFrame) {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	body := make([]byte, min(n, frameChunk))
	for off := 0; ; {
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return nil, err
		}
		if int64(len(body)) == n {
			return body, nil
		}
		off = len(body)
		body = append(body, make([]byte, min(int64(off), n-int64(off)))...)
	}
}
