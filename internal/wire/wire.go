// Package wire implements the compact length-prefixed binary framing of
// session snapshots: the records of the durable session store and the
// body of POST /v1/sessions/handoff (content type
// application/x-lpdag-bin). Every result the serving endpoints return is
// JSON; this framing never carries one.
//
// A stream is a sequence of frames, each a one-byte type tag followed by
// a uvarint payload length and the payload bytes:
//
//	'S' <uvarint len> <payload>   one session snapshot (durable store
//	                              records and the hand-off endpoint)
//	'D' <uvarint len> <id>        session tombstone (durable store only)
//
// The snapshot payload encoding belongs to internal/session; this
// package only owns the envelope and the primitive field encodings the
// payloads use: uvarint for non-negative integers, zigzag varint for
// signed ones, length-prefixed UTF-8 for strings.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/limits"
)

// ContentType is the MIME type of the framing, the Content-Type of a
// hand-off request body.
const ContentType = "application/x-lpdag-bin"

// Frame type tags.
const (
	FrameSnapshot = byte('S')
	FrameDelete   = byte('D')
)

// AppendFrame appends a frame of the given type around payload.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// ReadFrame splits the frame at the front of b into its type and
// payload, and returns the bytes after it. The payload is a view of b:
// a length prefix declares, it never allocates. A b that ends inside
// the frame returns io.ErrUnexpectedEOF; an empty b is the caller's
// clean end of stream.
func ReadFrame(b []byte) (typ byte, payload, rest []byte, err error) {
	if len(b) == 0 {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	switch typ = b[0]; typ {
	case FrameSnapshot, FrameDelete:
	default:
		return 0, nil, nil, fmt.Errorf("wire: unknown frame type 0x%02x", typ)
	}
	n, k := binary.Uvarint(b[1:])
	if k < 0 {
		return 0, nil, nil, fmt.Errorf("wire: overlong frame length")
	}
	if k == 0 || n > uint64(len(b)-1-k) {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	b = b[1+k:]
	return typ, b[:n], b[n:], nil
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendZigzag appends v as a zigzag-encoded varint (signed values of
// small magnitude stay short).
func AppendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// Dec is a cursor over one frame payload. Decode methods consume from
// the front; the first failure latches into Err and subsequent calls
// return zero values, so a decode sequence can check the error once at
// the end. A canonical decoder must also check Rest() == 0.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over b (which it does not copy).
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode failure, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns the number of unconsumed bytes.
func (d *Dec) Rest() int { return len(d.b) }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Uvarint consumes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Zigzag consumes a zigzag-encoded signed varint.
func (d *Dec) Zigzag() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// String consumes a length-prefixed string whose byte length lies in
// b; a length outside it latches b's limits error.
func (d *Dec) String(b limits.Bound) string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if err := limits.Check(b, n); err != nil {
		d.err = err
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Byte consumes one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated byte")
		return 0
	}
	b := d.b[0]
	d.b = d.b[1:]
	return b
}
