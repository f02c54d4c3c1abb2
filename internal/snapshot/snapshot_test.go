package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Section tags for the tests; the container accepts any 4-byte tag.
const (
	tagA = "AAAA"
	tagB = "BBBB"
	tagC = "CCCC"
	tagD = "DDDD"
)

func TestContainerRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.Section(tagA, []byte("hello"))
	b.Section(tagB, nil)
	b.Section(tagC, bytes.Repeat([]byte{0xAB}, 300))
	data := b.Finish()

	f, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Version != Version {
		t.Fatalf("version = %d, want %d", f.Version, Version)
	}
	if got := f.Tags(); !reflect.DeepEqual(got, []string{tagA, tagB, tagC}) {
		t.Fatalf("tags = %v", got)
	}
	if p, ok := f.Section(tagA); !ok || string(p) != "hello" {
		t.Fatalf("%s = %q, %v", tagA, p, ok)
	}
	if p, ok := f.Section(tagB); !ok || len(p) != 0 {
		t.Fatalf("%s = %q, %v", tagB, p, ok)
	}
	if _, ok := f.Section(tagD); ok {
		t.Fatal("absent section reported present")
	}
	if _, err := f.MustSection(tagD); err == nil {
		t.Fatal("MustSection of absent section did not error")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	b := NewBuilder()
	b.Section(tagA, []byte("payload-bytes"))
	good := b.Finish()

	if _, err := Parse(good); err != nil {
		t.Fatalf("control parse failed: %v", err)
	}

	// Every truncation point must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, err := Parse(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Every single-bit flip must error (all bytes are covered by
	// magic, version, framing, or the CRC).
	for i := 0; i < len(good); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[i] ^= 1 << bit
			if _, err := Parse(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
	// Version bump fails with a version error, not a checksum error.
	mut := append([]byte(nil), good...)
	mut[6] = 0x7F
	_, err := Parse(mut)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version bump error = %v", err)
	}
	// Trailing garbage after a valid END is rejected.
	if _, err := Parse(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Duplicate sections are rejected.
	b2 := NewBuilder()
	b2.Section(tagA, nil)
	b2.Section(tagA, nil)
	if _, err := Parse(b2.Finish()); err == nil {
		t.Fatal("duplicate section accepted")
	}
}

func TestParseHostileLengths(t *testing.T) {
	// A section header claiming more bytes than exist must be a clean
	// truncation error, not an allocation or a panic.
	hdr := append([]byte(magic), Version, 0) // current version
	huge := append(hdr, []byte("META\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F")...)
	if _, err := Parse(huge); !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile length error = %v", err)
	}
}

func TestReadFileValidates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	b := NewBuilder()
	b.Section(tagA, []byte("m"))
	data := b.Finish()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("truncated file accepted")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}
