// Package server is the network front-end of the library: a batched,
// backpressured membership/KV service over concurrent.Sharded filters
// and the lsm.Store (ROADMAP item 1, the tutorial's §3.3 serving
// story). The pieces compose bottom-up:
//
//   - wire.go: the request/response wire formats — JSON for humans and
//     a pinned little-endian binary frame for hot clients.
//   - reload.go: zero-downtime filter reload by atomic snapshot
//     hand-off from .bbf files.
//   - metrics.go: atomic counters rendered at /metrics and /debug/vars.
//   - engine.go: the service core — admission control, backpressure
//     riding the LSM write-stall path, and the two backends. A single
//     key is a scalar probe; a frame of keys is one hash-once/
//     probe-many ContainsBatch/GetBatch pass.
//   - server.go: the HTTP layer (cmd/filterd is a thin main around it).
package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Binary wire format v1 (pinned by the golden tests in testdata/):
//
//	request:  'B' 'Q' ver=1 op count:u32le count x key:u64le
//	response: 'B' 'R' ver=1 op count:u32le bitmap:ceil(count/8) bytes
//	          [count x value:u64le when op == OpGet]
//
// The found bitmap is LSB-first: key i's answer is bit i&7 of byte
// i>>3. Values of absent keys are encoded as zero. Frames are
// fixed-size given (op, count), carry no padding, and reject trailing
// garbage — a frame is the whole body, so a truncated or oversized
// request can never be half-read as a smaller valid one.
const (
	wireVersion = 1

	// OpContains probes the membership filter.
	OpContains byte = 1
	// OpGet performs LSM point lookups.
	OpGet byte = 2
)

// MaxWireBatch caps the keys in one request (JSON or binary). Larger
// batches are rejected at decode time, before any allocation sized by
// untrusted input.
const MaxWireBatch = 4096

// BinaryContentType selects the binary frame parser on /v1/probe.
const BinaryContentType = "application/x-bbf1"

// Wire decode failures. ErrTooLarge is split out so the HTTP layer can
// answer 413 instead of 400.
var (
	ErrMalformed = errors.New("server: malformed request")
	ErrTooLarge  = errors.New("server: batch exceeds MaxWireBatch")
)

const (
	reqHeaderLen  = 8 // magic(2) ver(1) op(1) count(4)
	respHeaderLen = 8
)

// Request is one decoded probe request: an op and its keys. Keys is
// reused across decodes into the same Request, so steady-state parsing
// does not allocate.
type Request struct {
	Op   byte
	Keys []uint64
}

// Response is a decoded binary response (client side and tests).
type Response struct {
	Op     byte
	Found  []bool
	Values []uint64 // nil unless Op == OpGet
}

func validOp(op byte) bool { return op == OpContains || op == OpGet }

// DecodeBinaryRequest parses one binary request frame into req,
// reusing req.Keys. The frame must span data exactly: truncated input,
// trailing bytes, an unknown version or op, and counts above
// MaxWireBatch are all rejected (wrapping ErrMalformed/ErrTooLarge)
// before any key is read.
func DecodeBinaryRequest(data []byte, req *Request) error {
	if len(data) < reqHeaderLen {
		return fmt.Errorf("%w: frame truncated at %d bytes", ErrMalformed, len(data))
	}
	if data[0] != 'B' || data[1] != 'Q' {
		return fmt.Errorf("%w: bad request magic %q", ErrMalformed, data[:2])
	}
	if data[2] != wireVersion {
		return fmt.Errorf("%w: unsupported wire version %d", ErrMalformed, data[2])
	}
	op := data[3]
	if !validOp(op) {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, op)
	}
	count := binary.LittleEndian.Uint32(data[4:8])
	if count > MaxWireBatch {
		return fmt.Errorf("%w: %d keys", ErrTooLarge, count)
	}
	want := reqHeaderLen + 8*int(count)
	if len(data) != want {
		return fmt.Errorf("%w: frame is %d bytes, op/count say %d", ErrMalformed, len(data), want)
	}
	req.Op = op
	req.Keys = req.Keys[:0]
	for off := reqHeaderLen; off < want; off += 8 {
		req.Keys = append(req.Keys, binary.LittleEndian.Uint64(data[off:off+8]))
	}
	return nil
}

// AppendBinaryRequest appends the canonical encoding of (op, keys) to
// dst and returns the extended slice.
func AppendBinaryRequest(dst []byte, op byte, keys []uint64) []byte {
	dst = append(dst, 'B', 'Q', wireVersion, op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// AppendBinaryResponse appends a response frame for (op, found) — plus
// values when op is OpGet — to dst. len(values) must equal len(found)
// for OpGet; values is ignored for OpContains.
func AppendBinaryResponse(dst []byte, op byte, found []bool, values []uint64) []byte {
	dst = append(dst, 'B', 'R', wireVersion, op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(found)))
	var b byte
	for i, ok := range found {
		if ok {
			b |= 1 << (i & 7)
		}
		if i&7 == 7 {
			dst = append(dst, b)
			b = 0
		}
	}
	if len(found)&7 != 0 {
		dst = append(dst, b)
	}
	if op == OpGet {
		for _, v := range values[:len(found)] {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	return dst
}

// DecodeBinaryResponse parses a response frame into resp, reusing its
// slices. Validation mirrors DecodeBinaryRequest.
func DecodeBinaryResponse(data []byte, resp *Response) error {
	if len(data) < respHeaderLen {
		return fmt.Errorf("%w: response truncated at %d bytes", ErrMalformed, len(data))
	}
	if data[0] != 'B' || data[1] != 'R' {
		return fmt.Errorf("%w: bad response magic %q", ErrMalformed, data[:2])
	}
	if data[2] != wireVersion {
		return fmt.Errorf("%w: unsupported wire version %d", ErrMalformed, data[2])
	}
	op := data[3]
	if !validOp(op) {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, op)
	}
	count := binary.LittleEndian.Uint32(data[4:8])
	if count > MaxWireBatch {
		return fmt.Errorf("%w: %d answers", ErrTooLarge, count)
	}
	n := int(count)
	want := respHeaderLen + (n+7)/8
	if op == OpGet {
		want += 8 * n
	}
	if len(data) != want {
		return fmt.Errorf("%w: response is %d bytes, op/count say %d", ErrMalformed, len(data), want)
	}
	resp.Op = op
	resp.Found = resp.Found[:0]
	resp.Values = resp.Values[:0]
	for i := 0; i < n; i++ {
		resp.Found = append(resp.Found, data[respHeaderLen+i>>3]>>(i&7)&1 == 1)
	}
	if op == OpGet {
		off := respHeaderLen + (n+7)/8
		for i := 0; i < n; i++ {
			resp.Values = append(resp.Values, binary.LittleEndian.Uint64(data[off+8*i:]))
		}
	}
	return nil
}

// jsonKeys is the JSON request body of the probe endpoints: exactly one
// of "key" or "keys" must be present.
type jsonKeys struct {
	Key  *uint64  `json:"key"`
	Keys []uint64 `json:"keys"`
}

// DecodeJSONKeys parses a {"key": k} or {"keys": [...]} body into req
// (the op comes from the route, not the body). It enforces the same
// MaxWireBatch bound as the binary parser and rejects bodies with
// both, neither, or an empty key list.
func DecodeJSONKeys(op byte, data []byte, req *Request) error {
	var body jsonKeys
	if err := json.Unmarshal(data, &body); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	switch {
	case body.Key != nil && body.Keys != nil:
		return fmt.Errorf(`%w: body has both "key" and "keys"`, ErrMalformed)
	case body.Key != nil:
		req.Op = op
		req.Keys = append(req.Keys[:0], *body.Key)
		return nil
	case len(body.Keys) > MaxWireBatch:
		return fmt.Errorf("%w: %d keys", ErrTooLarge, len(body.Keys))
	case len(body.Keys) > 0:
		req.Op = op
		req.Keys = append(req.Keys[:0], body.Keys...)
		return nil
	default:
		return fmt.Errorf(`%w: body needs "key" or a non-empty "keys"`, ErrMalformed)
	}
}

// DecodeRequest dispatches on content type: BinaryContentType selects
// the binary frame parser (which carries its own op); anything else is
// parsed as JSON with the route-supplied op. This is the single entry
// point the fuzz harness drives.
func DecodeRequest(contentType string, op byte, data []byte, req *Request) error {
	if contentType == BinaryContentType {
		return DecodeBinaryRequest(data, req)
	}
	return DecodeJSONKeys(op, data, req)
}
