package phy

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestFERTableDecisionExact is the table's core contract: for any
// (u, snr, length, rate), Lost must return exactly `u < FER(...)`.
// Sweeps the full waterfall region of every rate at several lengths,
// with u drawn both uniformly and adversarially near the exact FER.
func TestFERTableDecisionExact(t *testing.T) {
	tbl := NewFERTable(DefaultFERQuantumDB)
	rng := rand.New(rand.NewSource(9))
	lengths := []int{0, 14, 20, 38, 252, 1024, 1538, 2346}
	for _, r := range append(Rates[:], GRates[:]...) {
		thr := ferZeroSNRdB(r)
		for _, n := range lengths {
			lk := tbl.Lookup(n, r)
			for snr := -4.0; snr <= thr+3; snr += 0.0613 {
				fer := FER(snr, n, r)
				// Adversarial draws at and around the exact value, plus
				// uniform ones.
				draws := []float64{
					fer, math.Nextafter(fer, 0), math.Nextafter(fer, 1),
					fer - 1e-10, fer + 1e-10, fer / 2, (1 + fer) / 2,
					rng.Float64(), rng.Float64(),
				}
				for _, u := range draws {
					if u < 0 || u >= 1 {
						continue
					}
					want := u < fer
					if got := lk.Lost(u, snr); got != want {
						t.Fatalf("Lost(%v, %v) for len=%d rate=%v = %v, want %v (fer=%g)",
							u, snr, n, r, got, want, fer)
					}
				}
			}
		}
	}
}

// TestFERTableCoarseQuantumStillExact proves the quantum is a pure
// performance knob: even an absurdly coarse 4 dB table must make
// bit-identical decisions, just via more exact-path fallbacks.
func TestFERTableCoarseQuantumStillExact(t *testing.T) {
	tbl := NewFERTable(4.0)
	rng := rand.New(rand.NewSource(41))
	for _, r := range []Rate{Rate1Mbps, Rate11Mbps, Rate6Mbps, Rate54Mbps} {
		lk := tbl.Lookup(1500, r)
		for i := 0; i < 20000; i++ {
			snr := rng.Float64()*35 - 3
			u := rng.Float64()
			want := u < FER(snr, 1500, r)
			if got := lk.Lost(u, snr); got != want {
				t.Fatalf("coarse Lost(%v, %v) rate=%v = %v, want %v", u, snr, r, got, want)
			}
		}
	}
}

// TestFERTableUnknownRate falls back to the exact path (FER == 1 below
// the infinite threshold) instead of indexing a missing column.
func TestFERTableUnknownRate(t *testing.T) {
	tbl := NewFERTable(0)
	lk := tbl.Lookup(100, Rate(777))
	if !lk.Lost(0.5, 30) {
		t.Fatalf("unknown rate should have FER 1 and lose every frame")
	}
}

// TestFERTableNegativeLength clamps like FER does.
func TestFERTableNegativeLength(t *testing.T) {
	tbl := NewFERTable(0)
	lk := tbl.Lookup(-5, Rate11Mbps)
	for snr := 0.0; snr < 20; snr += 0.31 {
		u := 0.3
		if got, want := lk.Lost(u, snr), u < FER(snr, -5, Rate11Mbps); got != want {
			t.Fatalf("negative-length Lost mismatch at snr=%v", snr)
		}
	}
}

// TestSharedFERTableRegistry returns one table per quantum and maps
// <=0 to the default.
func TestSharedFERTableRegistry(t *testing.T) {
	a := SharedFERTable(0)
	b := SharedFERTable(DefaultFERQuantumDB)
	if a != b {
		t.Fatalf("SharedFERTable(0) and SharedFERTable(default) differ")
	}
	c := SharedFERTable(0.5)
	if c == a {
		t.Fatalf("distinct quanta should get distinct tables")
	}
	if got := c.QuantumDB(); got != 0.5 {
		t.Fatalf("QuantumDB = %v, want 0.5", got)
	}
}

// TestFERTableConcurrentBuild hammers lazy column building from many
// goroutines (the engine runs Networks in parallel); run under -race
// this validates the copy-on-write publication.
func TestFERTableConcurrentBuild(t *testing.T) {
	tbl := NewFERTable(DefaultFERQuantumDB)
	var wg sync.WaitGroup
	rates := append(Rates[:], GRates[:]...)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				r := rates[rng.Intn(len(rates))]
				n := rng.Intn(2400)
				lk := tbl.Lookup(n, r)
				snr := rng.Float64() * 30
				u := rng.Float64()
				if got, want := lk.Lost(u, snr), u < FER(snr, n, r); got != want {
					t.Errorf("concurrent Lost mismatch: u=%v snr=%v len=%d rate=%v", u, snr, n, r)
					return
				}
			}
		}(int64(g) + 100)
	}
	wg.Wait()
}

// BenchmarkFER compares the direct analytic evaluation against the
// table decision on the same workload: mid-waterfall SNRs where the
// exact-zero fast path does not apply.
func BenchmarkFER(b *testing.B) {
	type sample struct {
		u, snr float64
	}
	mk := func(r Rate) []sample {
		rng := rand.New(rand.NewSource(7))
		thr := ferZeroSNRdB(r)
		s := make([]sample, 1024)
		for i := range s {
			s[i] = sample{u: rng.Float64(), snr: rng.Float64() * thr}
		}
		return s
	}
	for _, bc := range []struct {
		name string
		rate Rate
	}{{"11Mbps", Rate11Mbps}, {"54Mbps", Rate54Mbps}} {
		samples := mk(bc.rate)
		b.Run("direct/"+bc.name, func(b *testing.B) {
			var lost int
			for i := 0; i < b.N; i++ {
				s := samples[i&1023]
				if s.u < FER(s.snr, 1538, bc.rate) {
					lost++
				}
			}
			sinkInt = lost
		})
		b.Run("table/"+bc.name, func(b *testing.B) {
			lk := SharedFERTable(0).Lookup(1538, bc.rate)
			var lost int
			for i := 0; i < b.N; i++ {
				s := samples[i&1023]
				if lk.Lost(s.u, s.snr) {
					lost++
				}
			}
			sinkInt = lost
		})
	}
}

var sinkInt int

// TestFERLookupAllocatesNothing pins the table decision's zero-alloc
// claim exactly: once a column is filled, fetching the lookup from
// the shared table and deciding from it never allocate, whether the
// bracket decides or the guard band falls back to the analytic FER.
func TestFERLookupAllocatesNothing(t *testing.T) {
	tbl := SharedFERTable(0)
	tbl.Lookup(1538, Rate11Mbps)
	rng := rand.New(rand.NewSource(11))
	thr := ferZeroSNRdB(Rate11Mbps)
	var lost int
	decide := func() {
		u, snr := rng.Float64(), rng.Float64()*thr
		if tbl.Lookup(1538, Rate11Mbps).Lost(u, snr) {
			lost++
		}
		// A draw at the exact FER lands inside the guard band.
		if tbl.Lookup(1538, Rate11Mbps).Lost(FER(snr, 1538, Rate11Mbps), snr) {
			lost++
		}
	}
	if n := testing.AllocsPerRun(10000, decide); n != 0 {
		t.Fatalf("SharedFERTable(0).Lookup(...).Lost allocates %v times per decision pair, want 0", n)
	}
	sinkInt = lost
}
