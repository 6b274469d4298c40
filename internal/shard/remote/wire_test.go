package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// fuzzMaxFrame bounds FuzzReadFrame's frames.
const fuzzMaxFrame = 1 << 20

// FuzzReadFrame feeds arbitrary bytes to readFrame: it must never panic,
// a body it returns must re-frame to exactly the bytes it consumed, and a
// body that decodes as a request must re-encode to a frame that decodes to
// the same request.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, request{ID: 1, Method: methodPing})
	f.Add(buf.Bytes())
	buf.Reset()
	writeFrame(&buf, request{ID: 2, Method: methodMax, Version: 3, Job: json.RawMessage(`{"param":1,"rows":{"lo":0,"hi":4},"sym":true}`)})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x40, 0, 0, 0, '{'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readFrame(bytes.NewReader(data), fuzzMaxFrame)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeBody(&out, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("body of %d bytes re-frames to %x, input starts %x", len(body), out.Bytes(), data[:min(len(data), out.Len())])
		}
		var req request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		out.Reset()
		if err := writeFrame(&out, req); err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
		}
		again, err := readFrame(&out, fuzzMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		var req2 request
		if err := json.Unmarshal(again, &req2); err != nil {
			t.Fatalf("re-encoded request %q does not decode: %v", again, err)
		}
		if req2.ID != req.ID || req2.Method != req.Method || req2.Version != req.Version || !jsonEqual(req2.Job, req.Job) {
			t.Fatalf("request %+v re-decoded as %+v", req, req2)
		}
	})
}

// jsonEqual compares two raw JSON values by what they decode to (the
// encoder may re-escape characters such as '&').
func jsonEqual(a, b json.RawMessage) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	var va, vb any
	return json.Unmarshal(a, &va) == nil && json.Unmarshal(b, &vb) == nil && reflect.DeepEqual(va, vb)
}

// TestReadFrameGrowsWithArrivingBytes: a header claiming a large frame
// with a short body fails with ErrUnexpectedEOF, and a body spanning
// several buffer doublings arrives intact.
func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], DefaultMaxFrame)
	if _, err := readFrame(bytes.NewReader(append(hdr[:], "short"...)), DefaultMaxFrame); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated 1 GiB frame: err = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := readFrame(bytes.NewReader(hdr[:]), DefaultMaxFrame); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header-only frame: err = %v, want ErrUnexpectedEOF", err)
	}
	body := make([]byte, 5*frameChunk+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := writeBody(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("%d-byte body read back as %d bytes, or with different contents", len(body), len(got))
	}
}

// TestHandEncodedRequestsMatchStructTags: the hand-built Sync snapshots
// and request envelopes decode to exactly what encoding/json's encoding of
// the same values decodes to, for a dense and a fully populated tiered
// snapshot (±Inf and NaN included).
func TestHandEncodedRequestsMatchStructTags(t *testing.T) {
	vals := Floats{1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(), 0}
	for _, job := range []*SyncJob{
		{N: 3, Tol: 1e-12, Version: 7, Flat: Floats{0, 1, 2, 3, 0, 5, 6, 7, 0}},
		{N: 2, Tol: 0.25, Tiered: &TieredSnap{
			Sym: true, Cfg: json.RawMessage(`{"k":1,"tail":"model"}`),
			NearStart: Int32s{0, 1, 2}, NearIdx: Int32s{1, 0}, NearVal: vals,
			F32: Float32s{1.5, float32(math.Inf(1))}, Model: json.RawMessage(`{"c":2}`),
			Pts: vals, LogMax: vals, LogMin: vals, FMax: vals, FMin: vals,
			Seed: 1.0000000000000426, TileRows: 16, MaxTiles: 4,
		}},
	} {
		want, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		body := encodeRequest(9, methodSync, 4, job.appendJSON(nil))
		var req request
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("hand-encoded request %q does not decode: %v", body, err)
		}
		if req.ID != 9 || req.Method != methodSync || req.Version != 4 {
			t.Fatalf("envelope decoded as %+v", req)
		}
		var got, ref SyncJob
		if err := json.Unmarshal(req.Job, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		// NaN != NaN, so compare the re-encodings, which are bit-exact.
		g, _ := json.Marshal(&got)
		r, _ := json.Marshal(&ref)
		if !bytes.Equal(g, r) {
			t.Fatalf("hand encoding decodes to\n%s\nencoding/json's to\n%s", g, r)
		}
	}
}
