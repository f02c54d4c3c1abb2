package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"wlan80211/internal/pcapio"
	"wlan80211/internal/phy"
)

// readAllRef is the record-at-a-time read ReadAll and the Cursor
// must agree with: the streaming pcapio.Reader, one FromPcap per
// record, each Frame copied out of the reader's reused buffer.
func readAllRef(rd io.Reader) ([]Record, int, error) {
	pr, err := pcapio.NewReader(rd)
	if err != nil {
		return nil, 0, err
	}
	if pr.LinkType() != pcapio.LinkTypeRadiotap {
		return nil, 0, ErrLinkType
	}
	var recs []Record
	skipped := 0
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return recs, skipped, nil
		}
		if err != nil {
			return recs, skipped, err
		}
		r, err := FromPcap(p)
		if err != nil {
			skipped++
			continue
		}
		r.Frame = bytes.Clone(r.Frame)
		recs = append(recs, r)
	}
}

// readCursor drains a Cursor the way ReadAll reads a stream: its
// records (Frames copied), skips and error, io.EOF giving nil.
func readCursor(rd io.Reader) ([]Record, int, error) {
	c, err := NewCursor(rd)
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	for {
		r, err := c.Next()
		if err == io.EOF {
			return recs, c.Skipped(), nil
		}
		if err != nil {
			return recs, c.Skipped(), err
		}
		r.Frame = bytes.Clone(r.Frame)
		recs = append(recs, r)
	}
}

// pcapBytes writes n test records as a little-endian microsecond
// radiotap pcap.
func pcapBytes(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 250)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := testRecord(phy.Micros(1000*i), phy.OrthogonalChannels[i%3], byte(i))
		r.SignalDBm = int8(-40 - i%30)
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reencode rewrites a little-endian microsecond pcap's file and
// record headers in another byte order and timestamp unit.
func reencode(le []byte, order binary.ByteOrder, nanos bool) []byte {
	out := append([]byte(nil), le...)
	magic := uint32(0xa1b2c3d4)
	if nanos {
		magic = 0xa1b23c4d
	}
	order.PutUint32(out[0:], magic)
	for _, at := range []int{4, 6} {
		order.PutUint16(out[at:], binary.LittleEndian.Uint16(le[at:]))
	}
	for _, at := range []int{8, 12, 16, 20} {
		order.PutUint32(out[at:], binary.LittleEndian.Uint32(le[at:]))
	}
	for off := 24; off+16 <= len(le); {
		capLen := binary.LittleEndian.Uint32(le[off+8:])
		for i := 0; i < 16; i += 4 {
			v := binary.LittleEndian.Uint32(le[off+i:])
			if i == 4 && nanos {
				v *= 1000
			}
			order.PutUint32(out[off+i:], v)
		}
		off += 16 + int(capLen)
	}
	return out
}

var errStreamFailed = errors.New("stream failed")

// failingAfter yields data[:n] and then errStreamFailed.
func failingAfter(data []byte, n int) io.Reader {
	return io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(errStreamFailed))
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Time != y.Time || x.Rate != y.Rate || x.Channel != y.Channel ||
			x.SignalDBm != y.SignalDBm || x.NoiseDBm != y.NoiseDBm ||
			x.SnifferID != y.SnifferID || x.OrigLen != y.OrigLen ||
			!bytes.Equal(x.Frame, y.Frame) {
			return false
		}
	}
	return true
}

// FuzzReadAll: for any bytes, read whole or failing after failAt
// bytes (failAt < 0: never), ReadAll and a drained Cursor each return
// the reference read's records, skip count and error — from an
// in-memory reader, from a regular file, and from readers that report
// the failure with or after the last data.
func FuzzReadAll(f *testing.F) {
	le := pcapBytes(f, 5)
	cutBody := le[:len(le)-3]
	hugeCap := append([]byte(nil), le...)
	binary.LittleEndian.PutUint32(hugeCap[24+8:], 1<<24+1)
	var badRT bytes.Buffer
	pw, _ := pcapio.NewWriter(&badRT, pcapio.LinkTypeRadiotap, 0)
	pw.WriteRecord(ToPcap(testRecord(1, phy.Channel1, 0)))
	pw.WriteRecord(pcapio.Record{TimestampMicros: 2, Data: []byte{9, 9}})
	pw.WriteRecord(pcapio.Record{TimestampMicros: 3, Data: []byte{1, 0, 8, 0, 0, 0, 0, 0}})
	pw.WriteRecord(ToPcap(testRecord(4, phy.Channel6, 1)))
	pw.Flush()
	var wrongLink bytes.Buffer
	pw, _ = pcapio.NewWriter(&wrongLink, pcapio.LinkTypeIEEE80211, 0)
	pw.WriteRecord(pcapio.Record{Data: []byte{1}})
	pw.Flush()

	for _, seed := range [][]byte{
		le,
		reencode(le, binary.BigEndian, false),
		reencode(le, binary.LittleEndian, true),
		reencode(le, binary.BigEndian, true),
		append(append([]byte(nil), le...), 1),
		append(append([]byte(nil), le...), make([]byte, 8)...),
		append(append([]byte(nil), le...), make([]byte, 15)...),
		cutBody,
		hugeCap,
		badRT.Bytes(),
		wrongLink.Bytes(),
		le[:24],
		le[:10],
		nil,
	} {
		f.Add(seed, -1)
	}
	// Failures at the file header, at a record boundary, inside a
	// record header and inside a record body.
	first := 24 + 16 + int(binary.LittleEndian.Uint32(le[24+8:]))
	for _, at := range []int{0, 12, 24, first, first + 5, first + 20} {
		f.Add(le, at)
	}

	f.Fuzz(func(t *testing.T, data []byte, failAt int) {
		check := func(name string, mk func() io.Reader) {
			want, wantSkip, wantErr := readAllRef(mk())
			for _, read := range []struct {
				name string
				f    func(io.Reader) ([]Record, int, error)
			}{{"ReadAll", ReadAll}, {"Cursor", readCursor}} {
				got, gotSkip, gotErr := read.f(mk())
				if gotErr != wantErr || gotSkip != wantSkip || !sameRecords(got, want) {
					t.Fatalf("%s: %s = %d records, %d skipped, %v; reference %d, %d, %v",
						name, read.name, len(got), gotSkip, gotErr, len(want), wantSkip, wantErr)
				}
			}
		}
		if failAt < 0 {
			check("bytes", func() io.Reader { return bytes.NewReader(data) })
			path := filepath.Join(t.TempDir(), "f.pcap")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			check("file", func() io.Reader {
				fh, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fh.Close() })
				return fh
			})
			return
		}
		n := failAt % (len(data) + 1)
		check("ErrReader", func() io.Reader { return failingAfter(data, n) })
		check("DataErrReader", func() io.Reader { return iotest.DataErrReader(failingAfter(data, n)) })
	})
}

// TestReadAllFrameAliasing: the Frames share one buffer, each capped
// at its own length, so appending to one leaves the next intact.
func TestReadAllFrameAliasing(t *testing.T) {
	data := pcapBytes(t, 3)
	want, _, err := readAllRef(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cap(got[i].Frame) != len(got[i].Frame) {
			t.Errorf("record %d: cap(Frame) = %d, len %d", i, cap(got[i].Frame), len(got[i].Frame))
		}
	}
	grown := append(got[0].Frame, bytes.Repeat([]byte{0xee}, 64)...)
	if !bytes.Equal(grown[:len(want[0].Frame)], want[0].Frame) {
		t.Error("appended Frame lost its own bytes")
	}
	if !sameRecords(got, want) {
		t.Error("appending to record 0's Frame changed a later record")
	}
}

// TestReadAllAllocs: reading a regular file costs the same number of
// allocations for 1k records as for 10k — one buffer and one record
// slice, nothing per record.
func TestReadAllAllocs(t *testing.T) {
	dir := t.TempDir()
	allocs := func(n int) float64 {
		path := filepath.Join(dir, "trace.pcap")
		if err := os.WriteFile(path, pcapBytes(t, n), 0o644); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			recs, skipped, err := ReadAll(f)
			if err != nil || skipped != 0 || len(recs) != n {
				t.Fatalf("ReadAll: %d records, %d skipped, %v", len(recs), skipped, err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Errorf("ReadAll allocs: %v for 1k records, %v for 10k; want equal", small, large)
	}
}

// TestCursorNextAllocatesNothing: once its buffer has grown to the
// largest record, the cursor reads and decodes a record without
// allocating.
func TestCursorNextAllocatesNothing(t *testing.T) {
	const n = 2000
	c, err := NewCursor(bytes.NewReader(pcapBytes(t, n)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(n-20, func() {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Next: %v allocs per record, want 0", allocs)
	}
}
