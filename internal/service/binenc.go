package service

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding primitives shared by the delta-checkpoint sidecar
// (delta.go) and kept deliberately tiny: varints for integers, raw
// IEEE-754 bits for floats (bit-exact round-trips, including the -Inf
// surplus flag JSON needs a side channel for), length-prefixed strings.
// Everything appends to a caller-owned buffer so the hot path reuses
// one allocation across writes.

func appendU64(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendInt(b []byte, v int) []byte    { return binary.AppendVarint(b, int64(v)) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// binReader decodes the same primitives with a sticky error: after the
// first malformed field every subsequent read returns zero values, and
// the caller checks err once at the end.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("service: delta decode: truncated %s", what)
	}
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// readNarrow reads a varint into one of task.Task's narrow fields. A value
// the field cannot hold is corruption the CRC did not catch, or a record
// from a build with wider fields: it fails the record like a truncated
// one, rather than wrapping into a different bid.
func readNarrow[T int16 | int32](r *binReader) T {
	v := r.int()
	if int(T(v)) != v && r.err == nil {
		r.err = fmt.Errorf("service: decode: %d overflows %T", v, T(0))
	}
	if r.err != nil {
		return 0
	}
	return T(v)
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *binReader) bool() bool { return r.byte() != 0 }

func (r *binReader) str() string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *binReader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("bytes")
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}
