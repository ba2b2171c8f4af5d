package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/limits"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, FrameSnapshot, []byte("hello"))
	buf = AppendFrame(buf, FrameDelete, nil)
	buf = AppendFrame(buf, FrameDelete, []byte("id"))

	typ, p, rest, err := ReadFrame(buf)
	if err != nil || typ != FrameSnapshot || string(p) != "hello" {
		t.Fatalf("frame 1: typ=%c p=%q err=%v", typ, p, err)
	}
	typ, p, rest, err = ReadFrame(rest)
	if err != nil || typ != FrameDelete || len(p) != 0 {
		t.Fatalf("frame 2: typ=%c p=%q err=%v", typ, p, err)
	}
	typ, p, rest, err = ReadFrame(rest)
	if err != nil || typ != FrameDelete || string(p) != "id" {
		t.Fatalf("frame 3: typ=%c p=%q err=%v", typ, p, err)
	}
	if len(rest) != 0 {
		t.Fatalf("end of stream: %d bytes left", len(rest))
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, FrameSnapshot, []byte("payload"))
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := ReadFrame(full[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err=%v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadFrameRejectsUnknownTypeAndOversize pins the frame header
// checks: an unknown type is refused, and a length past the bytes that
// remain — up to the largest uvarint — is a truncated frame, never an
// allocation or a wrapped slice bound.
func TestReadFrameRejectsUnknownTypeAndOversize(t *testing.T) {
	// 'R', 'H' and 'E' tagged result, heartbeat and error frames in
	// older servers' response streams; no snapshot stream holds them.
	for _, typ := range "ZRHE" {
		if _, _, _, err := ReadFrame([]byte(string(typ) + "\x00")); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Fatalf("type %c: err=%v", typ, err)
		}
	}
	for _, n := range []uint64{8, 1 << 23, math.MaxInt64, math.MaxUint64} {
		b := append(binary.AppendUvarint([]byte{FrameSnapshot}, n), "1234567"...)
		if _, _, _, err := ReadFrame(b); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("declared %d: err=%v, want ErrUnexpectedEOF", n, err)
		}
	}
	overlong := append([]byte{FrameSnapshot}, bytes.Repeat([]byte{0xff}, 10)...)
	if _, _, _, err := ReadFrame(append(overlong, 1)); err == nil || !strings.Contains(err.Error(), "overlong") {
		t.Fatalf("overlong length: err=%v", err)
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendString(b, "scenario-1")
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendZigzag(b, -42)
	b = AppendZigzag(b, math.MaxInt64)
	b = AppendZigzag(b, math.MinInt64)
	b = append(b, 0x7f)

	d := NewDec(b)
	if s := d.String(limits.Bound{Field: "s", Max: 64}); s != "scenario-1" {
		t.Fatalf("String = %q", s)
	}
	if v := d.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Zigzag(); v != -42 {
		t.Fatalf("Zigzag = %d", v)
	}
	if v := d.Zigzag(); v != math.MaxInt64 {
		t.Fatalf("Zigzag max = %d", v)
	}
	if v := d.Zigzag(); v != math.MinInt64 {
		t.Fatalf("Zigzag min = %d", v)
	}
	if v := d.Byte(); v != 0x7f {
		t.Fatalf("Byte = %#x", v)
	}
	if d.Err() != nil || d.Rest() != 0 {
		t.Fatalf("err=%v rest=%d", d.Err(), d.Rest())
	}
}

func TestDecLatchesFirstError(t *testing.T) {
	d := NewDec([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if s := d.String(limits.Bound{Field: "s", Max: 64}); s != "" {
		t.Fatalf("truncated String = %q", s)
	}
	first := d.Err()
	if first == nil {
		t.Fatal("no error for truncated string")
	}
	// Further decodes return zero values and keep the first error.
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("Uvarint after error = %d", v)
	}
	if d.Byte() != 0 || d.Zigzag() != 0 {
		t.Fatal("decodes after error not zero")
	}
	if d.Err() != first {
		t.Fatalf("error replaced: %v", d.Err())
	}
}

func TestDecStringLimit(t *testing.T) {
	b := AppendString(nil, "abcdef")
	d := NewDec(b)
	if d.String(limits.Bound{Field: "s", Max: 3}); d.Err() == nil {
		t.Fatal("no error for over-limit string")
	}
}
