package pcapio

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeRadiotap, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{TimestampMicros: 1_500_000, Data: []byte{1, 2, 3}},
		{TimestampMicros: 2_000_001, Data: bytes.Repeat([]byte{9}, 100), OrigLen: 100},
		{TimestampMicros: 2_000_002, Data: []byte{}, OrigLen: 0},
	}
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	im, err := NewImage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if im.LinkType() != LinkTypeRadiotap {
		t.Errorf("link type = %d", im.LinkType())
	}
	if im.SnapLen() != 65535 {
		t.Errorf("snap len = %d", im.SnapLen())
	}
	if n := im.Count(); n != len(recs) {
		t.Errorf("Count() = %d, want %d", n, len(recs))
	}
	got, err := readImage(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range recs {
		if got[i].TimestampMicros != recs[i].TimestampMicros {
			t.Errorf("rec %d ts = %d", i, got[i].TimestampMicros)
		}
		if !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Errorf("rec %d data mismatch", i)
		}
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeIEEE80211, 250)
	if err != nil {
		t.Fatal(err)
	}
	if w.SnapLen() != 250 {
		t.Fatalf("SnapLen() = %d", w.SnapLen())
	}
	data := bytes.Repeat([]byte{7}, 1400)
	if err := w.WriteRecord(Record{TimestampMicros: 5, Data: data}); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CapLen() != 250 {
		t.Errorf("CapLen = %d, want 250", rec.CapLen())
	}
	if rec.OrigLen != 1400 {
		t.Errorf("OrigLen = %d, want 1400", rec.OrigLen)
	}
	if !rec.Truncated() {
		t.Error("record must report truncated")
	}
}

func TestRecordHelpers(t *testing.T) {
	r := Record{Data: []byte{1, 2}, OrigLen: 2}
	if r.Truncated() {
		t.Error("full record must not be truncated")
	}
	if r.CapLen() != 2 {
		t.Error("CapLen")
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian microsecond pcap with one record.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:], magicMicros)
	binary.BigEndian.PutUint16(hdr[4:], 2)
	binary.BigEndian.PutUint16(hdr[6:], 4)
	binary.BigEndian.PutUint32(hdr[16:], 65535)
	binary.BigEndian.PutUint32(hdr[20:], LinkTypeIEEE80211)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:], 3)   // sec
	binary.BigEndian.PutUint32(rec[4:], 250) // usec
	binary.BigEndian.PutUint32(rec[8:], 2)   // caplen
	binary.BigEndian.PutUint32(rec[12:], 2)  // origlen
	buf.Write(rec)
	buf.Write([]byte{0xaa, 0xbb})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeIEEE80211 {
		t.Errorf("link type = %d", r.LinkType())
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.TimestampMicros != 3_000_250 {
		t.Errorf("ts = %d", got.TimestampMicros)
	}
	if !bytes.Equal(got.Data, []byte{0xaa, 0xbb}) {
		t.Error("data mismatch")
	}
}

func TestNanosecondRead(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], magicNanos)
	binary.LittleEndian.PutUint32(hdr[16:], 65535)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRadiotap)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:], 1)           // sec
	binary.LittleEndian.PutUint32(rec[4:], 500_000_999) // nsec
	binary.LittleEndian.PutUint32(rec[8:], 1)
	binary.LittleEndian.PutUint32(rec[12:], 1)
	buf.Write(rec)
	buf.WriteByte(0x42)

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.TimestampMicros != 1_500_000 {
		t.Errorf("ts = %d, want 1500000", got.TimestampMicros)
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err != ErrTruncated {
		t.Errorf("short header: %v", err)
	}
	bad := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(bad)); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	// Record header cut short.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeRadiotap, 0)
	w.WriteRecord(Record{Data: []byte{1, 2, 3, 4}})
	w.Flush()
	full := buf.Bytes()
	r, _ := NewReader(bytes.NewReader(full[:len(full)-2]))
	if _, err := r.Next(); err != ErrTruncated {
		t.Errorf("cut record: %v", err)
	}
	// Clean EOF.
	r, _ = NewReader(bytes.NewReader(full[:24]))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("clean EOF: %v", err)
	}
	// Absurd caplen.
	crazy := make([]byte, 40)
	copy(crazy, full[:24])
	binary.LittleEndian.PutUint32(crazy[32:], 1<<25)
	r, _ = NewReader(bytes.NewReader(crazy))
	if _, err := r.Next(); err != ErrTruncated {
		t.Errorf("crazy caplen: %v", err)
	}
}

func TestReadAllStopsOnError(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeRadiotap, 0)
	w.WriteRecord(Record{Data: []byte{1}})
	w.WriteRecord(Record{Data: []byte{2}})
	w.Flush()
	full := buf.Bytes()
	im, _ := NewImage(full[:len(full)-1])
	if n := im.Count(); n != 1 {
		t.Errorf("Count() = %d, want 1", n)
	}
	recs, err := readImage(im)
	if err != ErrTruncated {
		t.Errorf("err = %v", err)
	}
	if len(recs) != 1 {
		t.Errorf("recovered %d records, want 1", len(recs))
	}
}

// readImage drains an image into a slice, stopping at the first error
// (io.EOF gives a nil error).
func readImage(im *Image) ([]Record, error) {
	var recs []Record
	for {
		rec, err := im.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// TestImageMatchesReader: on arbitrary bytes behind a valid file
// header, the image yields the records, the count and the final error
// the streaming reader does.
func TestImageMatchesReader(t *testing.T) {
	var hdr bytes.Buffer
	w, _ := NewWriter(&hdr, LinkTypeRadiotap, 0)
	w.Flush()
	f := func(tail []byte, caps []uint8) bool {
		// Splice a few plausible record headers into the noise.
		for i, c := range caps {
			if at := i * 7; at+12 <= len(tail) {
				binary.LittleEndian.PutUint32(tail[at+8:], uint32(c%32))
			}
		}
		data := append(append([]byte(nil), hdr.Bytes()...), tail...)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return false
		}
		im, err := NewImage(data)
		if err != nil {
			return false
		}
		n := im.Count()
		for i := 0; ; i++ {
			want, werr := r.Next()
			got, gerr := im.Next()
			if werr != gerr || got.TimestampMicros != want.TimestampMicros ||
				got.OrigLen != want.OrigLen || !bytes.Equal(got.Data, want.Data) {
				return false
			}
			if werr != nil {
				return i == n
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestImageDataCapped: a record's Data ends at its own length, so an
// append copies instead of overwriting the next record's header.
func TestImageDataCapped(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeRadiotap, 0)
	w.WriteRecord(Record{TimestampMicros: 1, Data: []byte{1, 2}})
	w.WriteRecord(Record{TimestampMicros: 2, Data: []byte{3, 4}})
	w.Flush()
	im, _ := NewImage(buf.Bytes())
	first, _ := im.Next()
	if cap(first.Data) != len(first.Data) {
		t.Fatalf("cap(Data) = %d, want %d", cap(first.Data), len(first.Data))
	}
	_ = append(first.Data, 0xff, 0xff, 0xff, 0xff)
	second, err := im.Next()
	if err != nil || second.TimestampMicros != 2 || !bytes.Equal(second.Data, []byte{3, 4}) {
		t.Errorf("second record = %+v, %v", second, err)
	}
}

func TestImageErrors(t *testing.T) {
	if _, err := NewImage([]byte{1, 2, 3}); err != ErrTruncated {
		t.Errorf("short header: %v", err)
	}
	if _, err := NewImage(make([]byte, 24)); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ts int64, payload []byte) bool {
		if ts < 0 {
			ts = -ts
		}
		ts %= 4_000_000_000 * 1_000_000 / 2 // fit in uint32 seconds
		var buf bytes.Buffer
		w, err := NewWriter(&buf, LinkTypeRadiotap, 0)
		if err != nil {
			return false
		}
		if err := w.WriteRecord(Record{TimestampMicros: ts, Data: payload}); err != nil {
			return false
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Next()
		if err != nil {
			return false
		}
		return got.TimestampMicros == ts && bytes.Equal(got.Data, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReaderNeverPanics: arbitrary bytes must error, not panic.
func TestReaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return true
		}
		for i := 0; i < 10; i++ {
			if _, err := r.Next(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
