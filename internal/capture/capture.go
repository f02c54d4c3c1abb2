// Package capture defines the in-memory representation of a sniffed
// 802.11 frame — the MAC frame bytes plus the RFMon metadata the
// paper's sniffers recorded (timestamp, rate, channel, SNR) — and the
// bridging to the on-disk radiotap/pcap representation. It also merges
// the per-channel traces of multiple sniffers into one time-ordered
// stream, the first step of the paper's analysis pipeline.
package capture

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"wlan80211/internal/pcapio"
	"wlan80211/internal/phy"
	"wlan80211/internal/radiotap"
)

// Record is one captured frame with its RFMon metadata.
type Record struct {
	// Time is the capture timestamp in microseconds from the trace
	// epoch (the arrival time of the first bit).
	Time phy.Micros
	// Rate is the transmission rate of the frame.
	Rate phy.Rate
	// Channel is the channel the sniffer captured on.
	Channel phy.Channel
	// SignalDBm / NoiseDBm give received power and noise floor.
	SignalDBm int8
	NoiseDBm  int8
	// SnifferID identifies which sniffer produced the record, for
	// multi-sniffer dedup during merge.
	SnifferID int
	// OrigLen is the over-the-air frame length in bytes including the
	// FCS — the length the paper's airtime and size-class computations
	// use. Frame may be shorter (snap truncation).
	OrigLen int
	// Frame holds the captured MAC frame bytes, without FCS.
	Frame []byte
}

// SNR returns the record's signal-to-noise ratio in dB.
func (r *Record) SNR() float64 { return float64(r.SignalDBm) - float64(r.NoiseDBm) }

// Second returns the one-second analysis interval this record falls
// into (the paper computes all per-second metrics on these).
func (r *Record) Second() int64 { return int64(r.Time / phy.MicrosPerSecond) }

// ErrLinkType is returned when reading a pcap whose link type is not
// radiotap-encapsulated 802.11.
var ErrLinkType = errors.New("capture: pcap link type is not radiotap (127)")

// ToPcap converts a Record to a pcap record with a radiotap header.
func ToPcap(r Record) pcapio.Record {
	h := radiotap.Header{
		TSFT: uint64(r.Time), HaveTSFT: true,
		Flags: 0, HaveFlags: true,
		Rate: r.Rate, HaveRate: true,
		Channel: r.Channel, HaveChannel: true,
		SignalDBm: r.SignalDBm, HaveSignal: true,
		NoiseDBm: r.NoiseDBm, HaveNoise: true,
	}
	hdr := h.Encode()
	data := make([]byte, 0, len(hdr)+len(r.Frame))
	data = append(data, hdr...)
	data = append(data, r.Frame...)
	return pcapio.Record{
		TimestampMicros: int64(r.Time),
		OrigLen:         len(hdr) + r.OrigLen,
		Data:            data,
	}
}

// FromPcap converts a radiotap pcap record back to a capture Record.
func FromPcap(p pcapio.Record) (Record, error) {
	h, err := radiotap.Decode(p.Data)
	if err != nil {
		return Record{}, fmt.Errorf("capture: decoding radiotap: %w", err)
	}
	r := Record{
		Time:    phy.Micros(p.TimestampMicros),
		OrigLen: p.OrigLen - h.Length,
		Frame:   p.Data[h.Length:],
	}
	if h.HaveTSFT {
		r.Time = phy.Micros(h.TSFT)
	}
	if h.HaveRate {
		r.Rate = h.Rate
	}
	if h.HaveChannel {
		r.Channel = h.Channel
	}
	if h.HaveSignal {
		r.SignalDBm = h.SignalDBm
	}
	if h.HaveNoise {
		r.NoiseDBm = h.NoiseDBm
	}
	if r.OrigLen < len(r.Frame) {
		r.OrigLen = len(r.Frame)
	}
	return r, nil
}

// Writer writes capture records to a radiotap pcap stream.
type Writer struct {
	pw *pcapio.Writer
}

// NewWriter creates a radiotap pcap writer with the given snap length
// applied to the MAC frame (the radiotap header is always kept whole,
// mirroring how tethereal snaps after the capture header).
func NewWriter(w io.Writer, snapLen int) (*Writer, error) {
	// Reserve headroom for the radiotap header (max 24 bytes here).
	pcapSnap := 0
	if snapLen > 0 {
		pcapSnap = snapLen + 24
	}
	pw, err := pcapio.NewWriter(w, pcapio.LinkTypeRadiotap, pcapSnap)
	if err != nil {
		return nil, err
	}
	return &Writer{pw: pw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error { return w.pw.WriteRecord(ToPcap(r)) }

// Flush flushes the underlying pcap writer.
func (w *Writer) Flush() error { return w.pw.Flush() }

// ReadAll reads an entire radiotap pcap stream into capture records.
// Records that fail radiotap decoding are skipped (counted in the
// second return), matching the tolerant behaviour of trace tooling.
// A read error or a cut-short record ends the trace: ReadAll returns
// the records before it with pcapio.ErrTruncated.
//
// The stream is read once into one buffer, and every record's Frame
// aliases it, so the records hold the file's memory for as long as
// any of them is kept. Each Frame is capped at its own length:
// appending to it copies rather than overwriting the next record.
func ReadAll(rd io.Reader) ([]Record, int, error) {
	buf, rerr := readStream(rd)
	im, err := pcapio.NewImage(buf)
	if err != nil {
		return nil, 0, err
	}
	if im.LinkType() != pcapio.LinkTypeRadiotap {
		return nil, 0, ErrLinkType
	}
	recs := make([]Record, 0, im.Count())
	skipped := 0
	for {
		p, err := im.Next()
		if err == io.EOF && rerr == nil {
			return recs, skipped, nil
		}
		if err != nil {
			// A stream that failed after its last whole record
			// ends cut short too.
			return recs, skipped, pcapio.ErrTruncated
		}
		r, err := FromPcap(p)
		if err != nil {
			skipped++
			continue
		}
		recs = append(recs, r)
	}
}

// Cursor reads a radiotap pcap stream one record at a time, in
// stream order, in memory independent of the stream's length. Each
// Record's Frame aliases a buffer the Cursor reuses, so it is valid
// only until the next call to Next; a caller that keeps a record must
// copy its Frame. Records that fail radiotap decoding are skipped and
// counted, and every error is ReadAll's for the same bytes.
type Cursor struct {
	pr      *pcapio.Reader
	pos     int
	skipped int
}

// NewCursor parses the stream's pcap file header. Like ReadAll, it
// fails on a bad header and with ErrLinkType on a link type other
// than radiotap.
func NewCursor(rd io.Reader) (*Cursor, error) {
	pr, err := pcapio.NewReader(rd)
	if err != nil {
		return nil, err
	}
	if pr.LinkType() != pcapio.LinkTypeRadiotap {
		return nil, ErrLinkType
	}
	return &Cursor{pr: pr}, nil
}

// Next returns the next decodable record: io.EOF at the clean end of
// the stream, pcapio.ErrTruncated when it ends inside a record or a
// read fails.
func (c *Cursor) Next() (Record, error) {
	for {
		p, err := c.pr.Next()
		if err != nil {
			return Record{}, err
		}
		c.pos++
		r, err := FromPcap(p)
		if err == nil {
			return r, nil
		}
		c.skipped++
	}
}

// Pos returns the position in the stream of the record Next last
// returned, counting from 1 (as Wireshark numbers packets) and
// counting skipped records.
func (c *Cursor) Pos() int { return c.pos }

// Skipped returns how many undecodable records Next has passed over.
func (c *Cursor) Skipped() int { return c.skipped }

// readStream reads rd to its end into one buffer. An *os.File whose
// Stat reports a size starts the buffer at that size, as os.ReadFile
// does, so a regular file reads without regrowing; any other reader
// starts small and grows as io.ReadAll does.
func readStream(rd io.Reader) ([]byte, error) {
	var size int64
	if f, ok := rd.(*os.File); ok {
		if st, err := f.Stat(); err == nil {
			size = st.Size()
		}
	}
	// The spare byte lets the final read see EOF without growing the
	// buffer; a file that grew since Stat still reads whole.
	b := make([]byte, 0, max(size+1, 512))
	for {
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// minMergeRunLen is the average ascending-run length below which
// Merge abandons the run-merging path for the index sort: traces that
// fragmented into short runs pay more for run bookkeeping than the
// sort costs.
const minMergeRunLen = 32

// Merge combines multiple per-sniffer traces into one stream sorted by
// timestamp. When two sniffers captured the same transmission (equal
// time, channel, and frame bytes), only one copy is kept — co-located
// sniffers during the plenary session would otherwise double-count.
// The inputs need not be sorted. Merge is stable for distinct records
// with equal timestamps.
//
// Sniffer traces are nearly time-sorted already (capture order is
// transmission-end order; starts lag by at most one airtime), so
// Merge first splits every trace into maximal non-decreasing runs and
// k-way-merges them in ~O(n) when the runs are long — typically a
// handful of runs per trace. Heavily shuffled input falls back to the
// O(n log n) index sort.
func Merge(traces ...[]Record) []Record {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	if total == 0 {
		return nil
	}
	// Split into maximal non-decreasing runs, in input order: run i
	// precedes run j exactly when every record of i precedes every
	// record of j in the original concatenation — which makes a k-way
	// merge that breaks ties by run index equivalent to the stable
	// (original-position) sort.
	runs := make([][]Record, 0, len(traces))
	for _, tr := range traces {
		for i := 0; i < len(tr); {
			j := i + 1
			for j < len(tr) && tr[j].Time >= tr[j-1].Time {
				j++
			}
			runs = append(runs, tr[i:j])
			i = j
		}
	}
	var out []Record
	if total/len(runs) >= minMergeRunLen || len(runs) <= len(traces) {
		out = mergeRuns(runs, total)
	} else {
		out = sortConcat(traces, total)
	}
	// Drop duplicates among equal-time runs.
	dedup := out[:0]
	for i, r := range out {
		dup := false
		for j := i - 1; j >= 0 && out[j].Time == r.Time; j-- {
			if SameAir(&out[j], &r) {
				dup = true
				break
			}
		}
		if !dup {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

// mergeRuns k-way-merges already-sorted runs into one stream: O(n)
// for one run, O(n log k) otherwise, against the index sort's
// O(n log n). Ties pop from the lowest run index, matching the stable
// sort (runs are in original-position order).
func mergeRuns(runs [][]Record, total int) []Record {
	out := make([]Record, 0, total)
	if len(runs) == 1 {
		return append(out, runs[0]...)
	}
	// heap is a binary min-heap of run indices ordered by each run's
	// head record time, ties by run index.
	heap := make([]int32, 0, len(runs))
	less := func(a, b int32) bool {
		ta, tb := runs[a][0].Time, runs[b][0].Time
		if ta != tb {
			return ta < tb
		}
		return a < b
	}
	push := func(ri int32) {
		heap = append(heap, ri)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	for ri := range runs {
		push(int32(ri))
	}
	for len(heap) > 0 {
		ri := heap[0]
		out = append(out, runs[ri][0])
		runs[ri] = runs[ri][1:]
		if len(runs[ri]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown()
	}
	return out
}

// sortConcat is the fallback for heavily shuffled input: concatenate
// and index-sort, then apply the permutation in place.
func sortConcat(traces [][]Record, total int) []Record {
	merged := make([]Record, 0, total)
	for _, t := range traces {
		merged = append(merged, t...)
	}
	// Sort indices, not 80-byte records; breaking ties by original
	// position makes the unstable sort equivalent to a stable one.
	idx := make([]int32, len(merged))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ta, tb := merged[a].Time, merged[b].Time
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		}
		return int(a - b)
	})
	// Apply the permutation in place by following its cycles (marking
	// visited entries with -1), avoiding a second record buffer.
	for i := range idx {
		j := idx[i]
		if j < 0 || int(j) == i {
			idx[i] = -1
			continue
		}
		tmp := merged[i]
		k := i
		for int(j) != i {
			merged[k] = merged[j]
			idx[k] = -1
			k = int(j)
			j = idx[k]
		}
		merged[k] = tmp
		idx[k] = -1
	}
	return merged
}

// SameAir reports whether two records describe the same over-the-air
// transmission seen by different sniffers: equal start time, channel,
// rate and captured frame bytes.
func SameAir(a, b *Record) bool {
	return a.Time == b.Time && a.Channel == b.Channel && a.Rate == b.Rate && bytes.Equal(a.Frame, b.Frame)
}

// SplitByChannel partitions a merged trace by channel, the unit at
// which the paper computes utilization (each sniffer listened to one
// of channels 1, 6, 11).
func SplitByChannel(recs []Record) map[phy.Channel][]Record {
	out := make(map[phy.Channel][]Record)
	for _, r := range recs {
		out[r.Channel] = append(out[r.Channel], r)
	}
	return out
}
