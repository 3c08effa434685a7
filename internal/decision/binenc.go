package decision

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding primitives shared by the decision records and the
// broker's other framed files (the journal, the sidecar, the decision
// log), and kept deliberately tiny: varints for integers, raw IEEE-754
// bits for floats (bit-exact round-trips, −Inf included), length-prefixed
// strings. Everything appends to a caller-owned buffer so the hot path
// reuses one allocation across writes.

func AppendU64(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func AppendInt(b []byte, v int) []byte    { return binary.AppendVarint(b, int64(v)) }

func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader decodes the same primitives from B with a sticky error: after
// the first malformed field every subsequent read returns zero values,
// and the caller checks Err once at the end.
type Reader struct {
	B   []byte
	Err error
}

// fail records that what ran out, unless an earlier read already failed.
func (r *Reader) fail(what string) {
	if r.Err == nil {
		r.Err = fmt.Errorf("decision: truncated %s", what)
	}
}

// U64 reads a uvarint. A padded one (a zero last byte past the first)
// fails like a truncated one: every value has one encoding, so a record
// that decodes re-encodes to its own bytes.
func (r *Reader) U64() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B)
	if n <= 0 || n > 1 && r.B[n-1] == 0 {
		r.fail("uvarint")
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Int reads a varint, which is a zigzagged uvarint.
func (r *Reader) Int() int {
	u := r.U64()
	return int(int64(u>>1) ^ -int64(u&1))
}

// ReadNarrow reads a varint into one of task.Task's narrow fields. A value
// the field cannot hold is corruption the CRC did not catch, or a record
// from a build with wider fields: it fails the record like a truncated
// one, rather than wrapping into a different bid.
func ReadNarrow[T int16 | int32](r *Reader) T {
	v := r.Int()
	if int(T(v)) != v && r.Err == nil {
		r.Err = fmt.Errorf("decision: %d overflows %T", v, T(0))
	}
	if r.Err != nil {
		return 0
	}
	return T(v)
}

func (r *Reader) F64() float64 {
	if r.Err != nil {
		return 0
	}
	if len(r.B) < 8 {
		r.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.B))
	r.B = r.B[8:]
	return v
}

func (r *Reader) Byte() byte {
	if r.Err != nil {
		return 0
	}
	if len(r.B) < 1 {
		r.fail("byte")
		return 0
	}
	v := r.B[0]
	r.B = r.B[1:]
	return v
}

func (r *Reader) Bool() bool { return r.Byte() != 0 }

func (r *Reader) Str() string { return string(r.Bytes()) }

// Bytes reads a length-prefixed byte string, aliasing B.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.Err != nil {
		return nil
	}
	if uint64(len(r.B)) < n {
		r.fail("bytes")
		return nil
	}
	v := r.B[:n]
	r.B = r.B[n:]
	return v
}
