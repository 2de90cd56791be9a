package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk layout.  Both files start with an 8-byte magic; every record after
// it is framed as
//
//	u32 payload length | u32 CRC32-C of payload | payload
//
// (little endian).  The frame is written with a single Write call, so a crash
// can leave at most one partial record, and only at the tail.  The first
// payload byte is the record type; Register and Snapshot payloads carry a
// full ScenarioState, AppendRows and Bump carry deltas stamped with the epoch
// the mutation committed at.  Snapshot and aux files hold exactly one record
// after their magic (readFrameFile).
const (
	walMagic  = "URMWAL1\n"
	snapMagic = "URMSNP1\n"
)

// Record types.
const (
	recRegister   byte = 1 // full state; always the first record of a fresh WAL
	recAppendRow  byte = 2 // epoch, relation, row; read only, from before every append was a batch
	recBump       byte = 3 // epoch, stale floor
	recDrop       byte = 4 // scenario deleted; recovery removes the directory
	recSnapshot   byte = 5 // full state; only in snapshot files
	recAppendRows byte = 6 // epoch, relation, row count, rows — one batch, one epoch step
)

// maxRecordBytes bounds a single record; a declared length beyond it is
// corruption, not a record the store could ever have written.
const maxRecordBytes = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame wraps a payload in the record format, as one contiguous buffer so the
// append is a single Write.
func frame(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[8:], payload)
	return buf
}

// scanStatus classifies what walScan.next found.
type scanStatus int

const (
	scanRecord  scanStatus = iota // a whole, checksummed record
	scanEnd                       // clean end of file
	scanTorn                      // file ends inside a record: crash mid-append
	scanCorrupt                   // full-length record failing its checksum, or an impossible length
)

// walScan walks the records of a WAL or snapshot body (after the magic).
type walScan struct {
	data []byte
	off  int
	err  error // set when status is scanCorrupt
}

// next returns the next record payload.  scanTorn leaves off at the start of
// the partial record, the truncation point that discards it.
func (s *walScan) next() ([]byte, scanStatus) {
	rem := len(s.data) - s.off
	if rem == 0 {
		return nil, scanEnd
	}
	if rem < 8 {
		return nil, scanTorn
	}
	length := binary.LittleEndian.Uint32(s.data[s.off : s.off+4])
	if length > maxRecordBytes {
		s.err = fmt.Errorf("%w: record at offset %d declares impossible length %d", ErrCorrupt, s.off, length)
		return nil, scanCorrupt
	}
	if rem < 8+int(length) {
		return nil, scanTorn
	}
	want := binary.LittleEndian.Uint32(s.data[s.off+4 : s.off+8])
	payload := s.data[s.off+8 : s.off+8+int(length)]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		s.err = fmt.Errorf("%w: record at offset %d checksum %08x, want %08x", ErrCorrupt, s.off, got, want)
		return nil, scanCorrupt
	}
	s.off += 8 + int(length)
	return payload, scanRecord
}

// readFrameFile returns the payload of a single-record file (a snapshot or an
// aux blob): magic, exactly one checksummed record, nothing after it.  Such
// files are fsynced before they are renamed into place, so unlike the WAL
// there is no legitimate torn form: anything else is ErrCorrupt.
func readFrameFile(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	s := &walScan{data: data, off: len(magic)}
	payload, status := s.next()
	switch {
	case status == scanCorrupt:
		return nil, s.err
	case status != scanRecord:
		return nil, fmt.Errorf("%w: incomplete record", ErrCorrupt)
	case s.off != len(data):
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-s.off)
	}
	return payload, nil
}
