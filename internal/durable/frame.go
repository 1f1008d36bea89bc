package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
)

// One record frame serves every file the daemon trusts after a crash.
// The job journal is a sequence of frames; a checkpoint or a retained
// shard result is a file holding exactly one, a counts record
// (core.Checkpoint.AppendRecord).  A frame is
//
//	u32 little-endian payload length ∥ u64 little-endian CRC64-ECMA of the payload ∥ payload
//
// so a torn write, a truncation or a flipped bit anywhere in it fails
// verification instead of decoding.

// FrameHeader is the length word plus the checksum.
const FrameHeader = 12

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt reports bytes that are not one whole, verified frame: a
// torn write, a truncation, a flipped bit or a file that was never
// framed.  Readers quarantine what fails this way.
var ErrCorrupt = errors.New("durable: record corrupt (bad frame or CRC)")

// AppendFrame appends payload, framed, to buf.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// NextFrame verifies the frame at the start of data and returns its
// payload, which aliases data, and its size in bytes, header included.
// Data that does not start with a whole frame whose CRC matches returns
// an error wrapping ErrCorrupt.
func NextFrame(data []byte) (payload []byte, size int, err error) {
	if len(data) < FrameHeader {
		return nil, 0, fmt.Errorf("%w: %d bytes, short of a frame header", ErrCorrupt, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n > len(data)-FrameHeader {
		return nil, 0, fmt.Errorf("%w: frame claims %d payload bytes, %d remain", ErrCorrupt, n, len(data)-FrameHeader)
	}
	payload = data[FrameHeader : FrameHeader+n]
	if crc64.Checksum(payload, crcTable) != binary.LittleEndian.Uint64(data[4:]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, FrameHeader + n, nil
}

// OnlyFrame returns the payload of data, which must be exactly one
// frame: bytes after it are damage too.
func OnlyFrame(data []byte) ([]byte, error) {
	payload, size, err := NextFrame(data)
	if err == nil && size != len(data) {
		return nil, fmt.Errorf("%w: %d bytes after the frame", ErrCorrupt, len(data)-size)
	}
	return payload, err
}
