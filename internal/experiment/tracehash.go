package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"wlan80211/internal/capture"
)

// TraceHasher is a pass-through pipeline stage that folds every record
// into a running order-sensitive sha256 chain (digest_i =
// sha256(digest_{i-1} || record_i)). Campaigns insert it between the
// reorder release and the analyzer, so each run's final Sum is a
// content hash of the exact analyzed record sequence — the value the
// journal records and every resume, rerun and dispatch fold compares
// bit for bit.
type TraceHasher struct {
	sink Sink
	n    uint64
	fold [sha256.Size]byte
	buf  []byte
}

// NewTraceHasher creates a hashing stage feeding sink.
func NewTraceHasher(sink Sink) *TraceHasher {
	return &TraceHasher{sink: sink}
}

// Add folds rec into the chain and forwards it.
func (t *TraceHasher) Add(rec capture.Record) {
	b := append(t.buf[:0], t.fold[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Time))
	b = binary.LittleEndian.AppendUint16(b, uint16(rec.Rate))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Channel))
	b = append(b, byte(rec.SignalDBm), byte(rec.NoiseDBm))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.SnifferID))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.OrigLen))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(rec.Frame)))
	b = append(b, rec.Frame...)
	t.fold = sha256.Sum256(b)
	t.buf = b
	t.n++
	t.sink(rec)
}

// Count returns how many records have been folded.
func (t *TraceHasher) Count() uint64 { return t.n }

// Sum returns the chain digest so far as hex. After the stream ends
// this is the run's trace hash.
func (t *TraceHasher) Sum() string { return hex.EncodeToString(t.fold[:]) }
