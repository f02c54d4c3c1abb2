package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
	"wlan80211/internal/phy"
)

// horizon bounds how far a record may start before the newest end
// time already read from its input: the reorder window's horizon.
var horizon = experiment.ReorderHorizon()

// input is one pcap being read: its cursor, the record at its head
// (whose Frame aliases the cursor's buffer) and the newest end time
// read from it so far.
type input struct {
	name   string
	id     int
	cur    *capture.Cursor
	head   capture.Record
	end    phy.Micros // head's end time
	more   bool       // head holds a record
	newest phy.Micros
}

// advance reads the input's next record into head, checking it
// against the window's rule: a start at most horizon before the
// newest end read from this input, an airtime within the horizon, and
// a timestamp whose end the window can compute (a radiotap TSFT of
// 2^63 or more reads as negative). A record that breaks it is an
// error naming the input and the record's position, never a
// mis-sorted stream.
func (in *input) advance() error {
	rec, err := in.cur.Next()
	if err == io.EOF {
		in.more = false
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	air := phy.Airtime(rec.OrigLen, rec.Rate)
	switch {
	case air > horizon:
		return fmt.Errorf("%s: record %d: airtime %d µs (%d bytes at %v) exceeds the reorder horizon of %d µs",
			in.name, in.cur.Pos(), air, rec.OrigLen, rec.Rate, horizon)
	case rec.Time < 0 || rec.Time > math.MaxInt64-air:
		return fmt.Errorf("%s: record %d: timestamp %d µs out of range", in.name, in.cur.Pos(), rec.Time)
	case rec.Time < in.newest-horizon:
		return fmt.Errorf("%s: record %d starts at %d µs, more than the reorder horizon of %d µs before an earlier record's end at %d µs",
			in.name, in.cur.Pos(), rec.Time, horizon, in.newest)
	}
	rec.SnifferID = in.id
	in.head, in.end, in.more = rec, rec.Time+air, true
	in.newest = max(in.newest, in.end)
	return nil
}

// analyze streams the pcaps at paths into sink as one capture: in
// start-time order, ties in input order then file order, with
// same-air duplicates dropped — the records and the order
// capture.Merge gives for the same files. One cursor per file feeds a
// merge by end time into one Reorder window, whose releases pass
// through an airDedup. The sink's records alias buffers valid only
// during the call.
func analyze(paths []string, sink experiment.Sink) error {
	inputs := make([]*input, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in := &input{name: path, id: i}
		if in.cur, err = capture.NewCursor(f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := in.advance(); err != nil {
			return err
		}
		inputs[i] = in
	}
	var dd airDedup
	ro := experiment.NewReorder(func(rec capture.Record) {
		if dd.keep(rec) {
			sink(rec)
		}
	})
	for {
		// A linear scan for the earliest end: the inputs are a
		// handful of sniffers' files.
		var next *input
		for _, in := range inputs {
			if in.more && (next == nil || in.end < next.end) {
				next = in
			}
		}
		if next == nil {
			break
		}
		ro.Add(next.head)
		if err := next.advance(); err != nil {
			return err
		}
	}
	ro.Flush()
	for _, in := range inputs {
		if n := in.cur.Skipped(); n > 0 {
			fmt.Fprintf(os.Stderr, "wlanalyze: %s: skipped %d undecodable records\n", in.name, n)
		}
	}
	return nil
}

// airDedup drops same-air duplicates (capture.SameAir) from a
// start-ordered stream, keeping the first copy, as capture.Merge
// does. Every copy of one transmission has its start time, so a
// record is compared only with the records kept since the start time
// last changed.
type airDedup struct {
	// group[:n] are the kept records with the current start time;
	// their Frames are private copies, and the buffers of
	// group[n:] wait for reuse.
	group []capture.Record
	n     int
}

// keep reports whether rec is the first copy of its transmission,
// remembering it if so.
func (d *airDedup) keep(rec capture.Record) bool {
	if d.n > 0 && d.group[0].Time != rec.Time {
		d.n = 0
	}
	for i := range d.group[:d.n] {
		if capture.SameAir(&d.group[i], &rec) {
			return false
		}
	}
	if d.n == len(d.group) {
		d.group = append(d.group, capture.Record{})
	}
	g := &d.group[d.n]
	buf := g.Frame[:0]
	*g = rec
	g.Frame = append(buf, rec.Frame...)
	d.n++
	return true
}
