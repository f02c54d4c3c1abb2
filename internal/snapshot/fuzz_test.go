package snapshot

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParse drives the container decode path — header, section
// framing, END trailer and checksum — with arbitrary bytes. The
// invariant: errors, never panics, and never allocations beyond the
// input size; an accepted input lists every section it holds and
// rebuilds into a container that parses back to the same sections.
// The seed corpus in testdata/fuzz/FuzzParse pins real multi-section
// files, truncations, bit flips, and version bumps; `go test` replays
// it on every run, so the race job exercises it too.
func FuzzParse(f *testing.F) {
	// A multi-section container plus hand-made degenerate shapes as
	// live seeds (the checked-in corpus extends these).
	bl := NewBuilder()
	bl.Section("META", []byte("run=3 scale=0.02"))
	bl.Section("BODY", bytes.Repeat([]byte{0x00, 0x5A, 0xFF, 0x80}, 512))
	bl.Section("EMPT", nil)
	real := bl.Finish()
	f.Add(real)
	f.Add(real[:len(real)/2])
	mut := append([]byte(nil), real...)
	mut[len(mut)/3] ^= 0x10
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte("WLSNAP"))
	f.Add([]byte("WLSNAP\x01\x00META\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add(NewBuilder().Finish())

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		rb := NewBuilder()
		for _, tag := range file.Tags() {
			p, err := file.MustSection(tag)
			if err != nil {
				t.Fatalf("listed section %q: %v", tag, err)
			}
			rb.Section(tag, p)
		}
		again, err := Parse(rb.Finish())
		if err != nil {
			t.Fatalf("rebuilt container rejected: %v", err)
		}
		if !reflect.DeepEqual(again.Tags(), file.Tags()) {
			t.Fatalf("rebuilt tags %q, want %q", again.Tags(), file.Tags())
		}
		for _, tag := range file.Tags() {
			want, _ := file.Section(tag)
			if got, _ := again.Section(tag); !bytes.Equal(got, want) {
				t.Fatalf("rebuilt section %q differs", tag)
			}
		}
	})
}
