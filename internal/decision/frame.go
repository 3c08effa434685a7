package decision

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// One frame for every framed file a broker writes — the journal, the
// delta sidecar, the full snapshot and the decision log: a magic, a
// uvarint version and a header, then frames of uvarint length, CRC32
// (IEEE) of the payload, payload.

// MaxFrameHead is the longest frame head: a uvarint length and a CRC.
const MaxFrameHead = binary.MaxVarintLen64 + 4

// AppendFrame appends payload to dst as one frame. dst may share payload's
// array as long as MaxFrameHead bytes fit before the payload.
func AppendFrame(dst, payload []byte) []byte {
	dst = AppendU64(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// FrameNext extracts the next CRC-framed payload, or nil when the tail
// is truncated or fails its checksum.
func FrameNext(r *Reader) []byte {
	n, w := binary.Uvarint(r.B)
	if w <= 0 {
		return nil
	}
	rest := r.B[w:]
	if len(rest) < 4 || n > uint64(len(rest)-4) { // not n+4: a hostile n wraps
		return nil
	}
	crc := binary.LittleEndian.Uint32(rest)
	payload := rest[4 : 4+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil
	}
	r.B = rest[4+n:]
	return payload
}

// ErrFormatVersion refuses a framed file of this run (its magic, and a
// whole header the reader accepts) written in another version of its
// format: read as absent, it would silently drop every slot, acked bid or
// decision it holds.
var ErrFormatVersion = errors.New("unsupported file format version")

// FramedPrefix reads the valid prefix of a framed file: magic, a uvarint
// version, the rest of the header — which header reads, then accepts or
// refuses — and frames, whose payloads go to record in order. A foreign
// magic, a torn header or a refused one yields no records: the file
// belongs to something else. A header it accepts that names another
// version is ErrFormatVersion. The prefix ends silently at the first torn
// or corrupt frame (a crash's half-written tail, or bitrot), or at the
// first error record returns, which FramedPrefix returns. rest is the
// bytes after the prefix, all of data when no header was accepted: a
// reader of a file written whole refuses any.
func FramedPrefix(data, magic []byte, version uint64, header func(*Reader) bool, record func([]byte) error) (rest int, err error) {
	if !bytes.HasPrefix(data, magic) {
		return len(data), nil
	}
	r := &Reader{B: data[len(magic):]}
	v := r.U64()
	if !header(r) || r.Err != nil {
		return len(data), nil
	}
	if v != version {
		return len(data), fmt.Errorf("%w: version %d, want %d", ErrFormatVersion, v, version)
	}
	for len(r.B) > 0 {
		payload := FrameNext(r)
		if payload == nil {
			break
		}
		if err := record(payload); err != nil {
			return len(r.B), err
		}
	}
	return len(r.B), nil
}
