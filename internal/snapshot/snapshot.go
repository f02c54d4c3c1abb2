// Package snapshot holds a versioned binary container. (Crash-safe
// file replacement, which campaign manifests and reports are written
// through, is experiment.AtomicWriteFile.)
//
// The container is self-describing and fails loud: a fixed magic and
// version header, a sequence of tagged length-prefixed sections, and
// an END trailer carrying a CRC64 of everything before it. Corrupt,
// truncated, version-bumped, or oversized inputs return errors — the
// decoder never panics and never allocates more than the input could
// justify, so it is safe to fuzz and to point at arbitrary files.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
)

// Version is the container format version. Decoders reject any other
// value: layout changes must bump it.
const Version = 2

const (
	magic  = "WLSNAP"
	endTag = "END\x00"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

var (
	// ErrTruncated reports input that ends before its structure does.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrChecksum reports a CRC64 mismatch — the bytes were altered.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
)

// Builder assembles a snapshot file.
type Builder struct {
	buf []byte
}

// NewBuilder starts a snapshot with the magic and version header.
func NewBuilder() *Builder {
	b := &Builder{buf: make([]byte, 0, 1<<12)}
	b.buf = append(b.buf, magic...)
	b.buf = binary.LittleEndian.AppendUint16(b.buf, Version)
	return b
}

// Section appends one tagged section. The tag must be exactly 4 bytes
// and not the END trailer tag; violating that is a programming error.
func (b *Builder) Section(tag string, payload []byte) {
	if len(tag) != 4 || tag == endTag {
		panic(fmt.Sprintf("snapshot: invalid section tag %q", tag))
	}
	b.buf = append(b.buf, tag...)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(payload)))
	b.buf = append(b.buf, payload...)
}

// Finish appends the END trailer (CRC64 of all preceding bytes) and
// returns the complete file. The builder must not be reused after.
func (b *Builder) Finish() []byte {
	sum := crc64.Checksum(b.buf, crcTable)
	b.buf = append(b.buf, endTag...)
	b.buf = binary.AppendUvarint(b.buf, 8)
	b.buf = binary.LittleEndian.AppendUint64(b.buf, sum)
	return b.buf
}

// File is a parsed snapshot. Section payloads alias the input buffer.
type File struct {
	Version  uint16
	tags     []string
	payloads map[string][]byte
}

// Parse validates a snapshot file end to end: magic, version, section
// framing, the END trailer, the whole-file checksum, and absence of
// trailing bytes. Any defect returns an error; Parse never panics.
func Parse(data []byte) (*File, error) {
	if len(data) < len(magic)+2 {
		return nil, fmt.Errorf("snapshot: %d-byte input shorter than header: %w", len(data), ErrTruncated)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:len(magic)])
	}
	v := binary.LittleEndian.Uint16(data[len(magic):])
	if v != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads %d)", v, Version)
	}
	f := &File{Version: v, payloads: make(map[string][]byte)}
	off := len(magic) + 2
	for {
		if len(data)-off < 4 {
			return nil, fmt.Errorf("snapshot: section header at offset %d: %w", off, ErrTruncated)
		}
		tag := string(data[off : off+4])
		ln, n := binary.Uvarint(data[off+4:])
		if n <= 0 {
			return nil, fmt.Errorf("snapshot: section %q length at offset %d: %w", tag, off, ErrTruncated)
		}
		body := off + 4 + n
		if ln > uint64(len(data)-body) {
			return nil, fmt.Errorf("snapshot: section %q claims %d bytes, %d remain: %w", tag, ln, len(data)-body, ErrTruncated)
		}
		payload := data[body : body+int(ln)]
		if tag == endTag {
			if ln != 8 {
				return nil, fmt.Errorf("snapshot: END trailer is %d bytes, want 8", ln)
			}
			if crc64.Checksum(data[:off], crcTable) != binary.LittleEndian.Uint64(payload) {
				return nil, ErrChecksum
			}
			if body+8 != len(data) {
				return nil, fmt.Errorf("snapshot: %d trailing bytes after END", len(data)-body-8)
			}
			return f, nil
		}
		if _, dup := f.payloads[tag]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %q", tag)
		}
		f.payloads[tag] = payload
		f.tags = append(f.tags, tag)
		off = body + int(ln)
	}
}

// Section returns a section's payload and whether it is present.
func (f *File) Section(tag string) ([]byte, bool) {
	p, ok := f.payloads[tag]
	return p, ok
}

// MustSection returns a section's payload or an error naming the tag.
func (f *File) MustSection(tag string) ([]byte, error) {
	p, ok := f.payloads[tag]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing section %q", tag)
	}
	return p, nil
}

// Tags lists the sections in file order.
func (f *File) Tags() []string { return f.tags }
