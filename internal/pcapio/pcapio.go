// Package pcapio reads and writes libpcap capture files using only the
// standard library. It supports the classic microsecond format and the
// nanosecond variant, both byte orders on read, and per-record snap
// length truncation on write — the on-disk format the paper's
// tethereal-based collection framework produced.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Link types relevant to 802.11 capture.
const (
	// LinkTypeIEEE80211 is a bare 802.11 MAC frame.
	LinkTypeIEEE80211 uint32 = 105
	// LinkTypeRadiotap is an 802.11 frame preceded by a radiotap
	// header — what RFMon-mode capture produces.
	LinkTypeRadiotap uint32 = 127
)

// Magic numbers.
const (
	magicMicros = 0xa1b2c3d4
	magicNanos  = 0xa1b23c4d
)

// Errors.
var (
	ErrBadMagic  = errors.New("pcapio: bad magic number")
	ErrTruncated = errors.New("pcapio: truncated file")
)

// Record is one captured packet.
type Record struct {
	// TimestampMicros is the capture time in microseconds since the
	// epoch of the trace.
	TimestampMicros int64
	// OrigLen is the original packet length on the wire.
	OrigLen int
	// Data is the captured bytes (possibly snap-truncated).
	Data []byte
}

// CapLen returns the captured length.
func (r *Record) CapLen() int { return len(r.Data) }

// Truncated reports whether the record was snap-length truncated.
func (r *Record) Truncated() bool { return len(r.Data) < r.OrigLen }

// Writer writes a pcap file.
type Writer struct {
	w        *bufio.Writer
	snapLen  int
	linkType uint32
	wrote    bool
}

// DefaultSnapLen mirrors the paper's collection configuration: "the
// snap-length of the captured packets was set to 250 bytes" (plus room
// for the radiotap header we prepend).
const DefaultSnapLen = 250

// NewWriter creates a pcap writer with the given link type and snap
// length (0 means unlimited, stored as 65535).
func NewWriter(w io.Writer, linkType uint32, snapLen int) (*Writer, error) {
	if snapLen <= 0 {
		snapLen = 65535
	}
	pw := &Writer{w: bufio.NewWriterSize(w, 1<<16), snapLen: snapLen, linkType: linkType}
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	binary.LittleEndian.PutUint32(hdr[16:], uint32(snapLen))
	binary.LittleEndian.PutUint32(hdr[20:], linkType)
	if _, err := pw.w.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcapio: writing file header: %w", err)
	}
	return pw, nil
}

// SnapLen returns the writer's snap length.
func (w *Writer) SnapLen() int { return w.snapLen }

// WriteRecord writes one packet, truncating to the snap length. The
// record's OrigLen is honored if it exceeds len(Data); otherwise the
// original length is len(Data).
func (w *Writer) WriteRecord(r Record) error {
	data := r.Data
	orig := r.OrigLen
	if orig < len(data) {
		orig = len(data)
	}
	if len(data) > w.snapLen {
		data = data[:w.snapLen]
	}
	var hdr [16]byte
	sec := r.TimestampMicros / 1_000_000
	usec := r.TimestampMicros % 1_000_000
	binary.LittleEndian.PutUint32(hdr[0:], uint32(sec))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(usec))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(orig))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcapio: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcapio: writing record data: %w", err)
	}
	w.wrote = true
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// format is what a pcap file header says about the records after it.
type format struct {
	big      bool // big-endian headers
	nanos    bool // nanosecond timestamps
	snapLen  int
	linkType uint32
}

const (
	fileHeaderLen   = 24
	recordHeaderLen = 16
	maxCapLen       = 1 << 24
)

// parseFileHeader decodes the 24-byte file header.
func parseFileHeader(hdr []byte) (format, error) {
	var f format
	magicLE := binary.LittleEndian.Uint32(hdr)
	magicBE := binary.BigEndian.Uint32(hdr)
	switch {
	case magicLE == magicMicros:
	case magicLE == magicNanos:
		f.nanos = true
	case magicBE == magicMicros:
		f.big = true
	case magicBE == magicNanos:
		f.big, f.nanos = true, true
	default:
		return format{}, ErrBadMagic
	}
	f.snapLen = int(f.u32(hdr[16:]))
	f.linkType = f.u32(hdr[20:])
	return f, nil
}

func (f *format) u32(b []byte) uint32 {
	if f.big {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// recordHeader decodes a 16-byte record header: the timestamp in
// microseconds, the captured and the original length. A captured
// length over 16 MiB is taken as a corrupt header (ErrTruncated).
func (f *format) recordHeader(hdr []byte) (ts int64, capLen, origLen int, err error) {
	sec := int64(f.u32(hdr[0:]))
	sub := int64(f.u32(hdr[4:]))
	capLen = int(f.u32(hdr[8:]))
	origLen = int(f.u32(hdr[12:]))
	if capLen < 0 || capLen > maxCapLen {
		return 0, 0, 0, ErrTruncated
	}
	ts = sec * 1_000_000
	if f.nanos {
		ts += sub / 1000
	} else {
		ts += sub
	}
	return ts, capLen, origLen, nil
}

// LinkType returns the file's link type.
func (f *format) LinkType() uint32 { return f.linkType }

// SnapLen returns the file's snap length.
func (f *format) SnapLen() int { return f.snapLen }

// Reader reads a pcap file from a stream, one record at a time.
type Reader struct {
	format
	r   *bufio.Reader
	hdr [recordHeaderLen]byte
	buf []byte // the last record's bytes, reused by the next
}

// NewReader parses the pcap file header and prepares to read records.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, ErrTruncated
	}
	f, err := parseFileHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return &Reader{format: f, r: br}, nil
}

// Next reads the next record. Its Data aliases a buffer the Reader
// reuses, so it is valid only until the next call; a caller that
// keeps a record must copy its Data. Next returns io.EOF cleanly at
// end of file and ErrTruncated if a record is cut short.
func (r *Reader) Next() (Record, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, ErrTruncated
	}
	ts, capLen, origLen, err := r.recordHeader(r.hdr[:])
	if err != nil {
		return Record{}, err
	}
	if cap(r.buf) < capLen {
		r.buf = make([]byte, max(capLen, 512))
	}
	data := r.buf[:capLen:capLen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, ErrTruncated
	}
	return Record{TimestampMicros: ts, OrigLen: origLen, Data: data}, nil
}

// Image reads the records of a pcap file held whole in memory. A
// record's Data aliases the image, capped at its own length, so
// reading allocates nothing per record and appending to one record's
// Data never overwrites the next record.
type Image struct {
	format
	recs []byte // the records, after the file header
	off  int    // offset in recs of the next record
}

// NewImage parses the file header at the start of b. The errors are
// NewReader's for the same bytes.
func NewImage(b []byte) (*Image, error) {
	if len(b) < fileHeaderLen {
		return nil, ErrTruncated
	}
	f, err := parseFileHeader(b)
	if err != nil {
		return nil, err
	}
	return &Image{format: f, recs: b[fileHeaderLen:]}, nil
}

// at decodes the record at off and returns it with the offset of the
// record after it. Its errors are Reader.Next's at the same position.
func (im *Image) at(off int) (Record, int, error) {
	rest := im.recs[off:]
	if len(rest) == 0 {
		return Record{}, off, io.EOF
	}
	if len(rest) < recordHeaderLen {
		return Record{}, off, ErrTruncated
	}
	ts, capLen, origLen, err := im.recordHeader(rest)
	if err != nil {
		return Record{}, off, err
	}
	end := recordHeaderLen + capLen
	if len(rest) < end {
		return Record{}, off, ErrTruncated
	}
	return Record{TimestampMicros: ts, OrigLen: origLen, Data: rest[recordHeaderLen:end:end]}, off + end, nil
}

// Next returns the next record, io.EOF cleanly at the end of the
// image and ErrTruncated if a record is cut short or corrupt, as
// Reader.Next does.
func (im *Image) Next() (Record, error) {
	r, next, err := im.at(im.off)
	im.off = next
	return r, err
}

// Count returns how many records Next will return before its first
// error (io.EOF included), walking only the record headers.
func (im *Image) Count() int {
	n := 0
	for off := im.off; ; n++ {
		_, next, err := im.at(off)
		if err != nil {
			return n
		}
		off = next
	}
}
