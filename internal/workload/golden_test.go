package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	"wlan80211/internal/capture"
)

// updateGolden regenerates testdata/goldens.json from the current
// simulator. The regeneration workflow for a deliberate
// behaviour-visible change (anything that re-orders event seq
// allocation, e.g. the lazy DCF countdown):
//
//  1. BEFORE the change, run `go test ./internal/workload/
//     -update-golden` and commit the file — it records both the
//     order-sensitive trace hashes and the seq-agnostic physics
//     digests of the old simulator.
//  2. Make the change.
//  3. Run -update-golden again and inspect the git diff: the
//     physics_digest values must be UNCHANGED (the change moved event
//     bookkeeping, not radio physics), while trace_hash values may
//     move. A digest change means the "refactor" altered simulated
//     behaviour — stop and find out why.
//  4. Commit the regenerated file together with the change.
var updateGolden = flag.Bool("update-golden", false,
	"regenerate testdata/goldens.json from the current simulator")

const goldensPath = "testdata/goldens.json"

// golden records the two digests kept per scenario.
type golden struct {
	// TraceHash folds every record field in merged-trace order: any
	// drift at all — physics, event ordering, merge tie-breaks —
	// changes it. It pins full bit-identity per seed.
	TraceHash string `json:"trace_hash"`
	// PhysicsDigest folds the same per-record content through a
	// commutative sum, so it is independent of record order: event-seq
	// reallocation that only permutes same-instant records leaves it
	// bit-identical, while any change to what was transmitted — times,
	// rates, sources, outcomes, signal levels — shows up.
	PhysicsDigest string `json:"physics_digest"`
}

// goldenScenarios are the traces under golden protection: the two
// paper sessions, the figure sweep, and the multi-cell grid — together
// they exercise contention, collisions, rate adaptation, churn, the
// controller, NAV/RTS protection, mobility, mixed b/g, and all three
// sniffer loss modes.
var goldenScenarios = map[string]func() []capture.Record{
	"day": func() []capture.Record {
		b, err := DaySession().Scale(0.1).Build()
		if err != nil {
			panic(err)
		}
		return b.Run()
	},
	"plenary": func() []capture.Record {
		b, err := PlenarySession().Scale(0.1).Build()
		if err != nil {
			panic(err)
		}
		return b.Run()
	},
	"sweep": func() []capture.Record {
		// The sniffer's own capture-order trace, unmerged: the form
		// this golden was recorded in.
		b, err := DefaultSweep().Scale(0.25).Build()
		if err != nil {
			panic(err)
		}
		b.Net.RunFor(b.Duration)
		return b.Sniffers[0].Records()
	},
	"grid": func() []capture.Record {
		b, err := DefaultGrid().Scale(0.5).Build()
		if err != nil {
			panic(err)
		}
		return b.Run()
	},
	// grid256 runs under CampusEnvironment (σ = 0), so it pins the
	// spatially-culled sparse-link path the other scenarios never
	// take; half scale keeps it ~1 s while still >500 stations.
	"grid256": func() []capture.Record {
		b, err := Grid256().Scale(0.5).Build()
		if err != nil {
			panic(err)
		}
		return b.Run()
	},
}

// goldenScenario is the fast scenario the stability and bench tests
// reuse.
func goldenScenario() []capture.Record { return goldenScenarios["day"]() }

// recordSum hashes one record's full content (time, channel, rate,
// signal/noise, sniffer, lengths, frame bytes) into two 64-bit lanes.
func recordSum(r *capture.Record) (uint64, uint64) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(r.Time))
	put(uint64(r.Rate))
	put(uint64(r.Channel))
	put(uint64(uint8(r.SignalDBm)))
	put(uint64(uint8(r.NoiseDBm)))
	put(uint64(r.SnifferID))
	put(uint64(r.OrigLen))
	put(uint64(len(r.Frame)))
	h.Write(r.Frame)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.LittleEndian.Uint64(sum[0:8]), binary.LittleEndian.Uint64(sum[8:16])
}

// hashTrace folds every field of every record into one order-sensitive
// digest, so any behavioural drift in the simulator — timing, rates,
// signal levels, frame bytes, ordering — changes the hash.
func hashTrace(recs []capture.Record) string {
	h := sha256.New()
	var buf [8]byte
	for i := range recs {
		a, b := recordSum(&recs[i])
		binary.LittleEndian.PutUint64(buf[:], a)
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], b)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestTrace folds the same per-record content order-insensitively:
// each record's two hash lanes are summed mod 2^64 along with the
// record count. Two traces with the same multiset of records — however
// ordered — digest identically; a single changed bit in any record
// moves both lanes.
func digestTrace(recs []capture.Record) string {
	var laneA, laneB uint64
	for i := range recs {
		a, b := recordSum(&recs[i])
		laneA += a
		laneB += b
	}
	var out [24]byte
	binary.LittleEndian.PutUint64(out[0:8], uint64(len(recs)))
	binary.LittleEndian.PutUint64(out[8:16], laneA)
	binary.LittleEndian.PutUint64(out[16:24], laneB)
	return hex.EncodeToString(out[:])
}

// loadGoldens reads the committed goldens file.
func loadGoldens(t *testing.T) map[string]golden {
	t.Helper()
	data, err := os.ReadFile(goldensPath)
	if err != nil {
		t.Fatalf("reading goldens (run `go test ./internal/workload/ -update-golden` to create): %v", err)
	}
	var m map[string]golden
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parsing %s: %v", goldensPath, err)
	}
	return m
}

// TestGoldenTraces pins every golden scenario's merged trace, at two
// strengths: trace_hash (full bit-identity, including ordering) and
// physics_digest (order-insensitive record content). With
// -update-golden it regenerates testdata/goldens.json instead; see the
// flag comment for the seq-breaking-change workflow.
func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	names := make([]string, 0, len(goldenScenarios))
	for name := range goldenScenarios {
		names = append(names, name)
	}
	sort.Strings(names)

	got := make(map[string]golden, len(names))
	for _, name := range names {
		recs := goldenScenarios[name]()
		if len(recs) == 0 {
			t.Fatalf("%s: empty golden trace", name)
		}
		got[name] = golden{TraceHash: hashTrace(recs), PhysicsDigest: digestTrace(recs)}
	}

	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldensPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s; diff it — physics_digest moving means simulated behaviour changed", goldensPath)
		return
	}

	want := loadGoldens(t)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from %s (run -update-golden)", name, goldensPath)
			continue
		}
		g := got[name]
		if g.PhysicsDigest != w.PhysicsDigest {
			t.Errorf("%s: physics digest drifted — the simulator's behaviour changed:\n got %s\nwant %s",
				name, g.PhysicsDigest, w.PhysicsDigest)
		}
		if g.TraceHash != w.TraceHash {
			t.Errorf("%s: trace hash drifted:\n got %s\nwant %s", name, g.TraceHash, w.TraceHash)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden entry has no scenario; prune it from %s", name, goldensPath)
		}
	}
}

// TestGoldenTraceStable guards the guard: two runs of the same scenario
// must agree with each other, or the hash test is meaningless.
func TestGoldenTraceStable(t *testing.T) {
	if a, b := hashTrace(goldenScenario()), hashTrace(goldenScenario()); a != b {
		t.Fatalf("same-seed runs diverged: %s vs %s", a, b)
	}
}

// TestDigestOrderInsensitive pins the digest's defining property on a
// real trace: reversing the record order must not change it, and
// flipping one byte of one frame must.
func TestDigestOrderInsensitive(t *testing.T) {
	recs := goldenScenario()
	if len(recs) < 2 {
		t.Fatal("trace too small")
	}
	fwd := digestTrace(recs)
	rev := make([]capture.Record, len(recs))
	for i := range recs {
		rev[len(recs)-1-i] = recs[i]
	}
	if got := digestTrace(rev); got != fwd {
		t.Errorf("digest is order-sensitive: %s vs %s", got, fwd)
	}
	if len(recs[0].Frame) > 0 {
		mut := make([]capture.Record, len(recs))
		copy(mut, recs)
		f := append([]byte(nil), mut[0].Frame...)
		f[0] ^= 0x80
		mut[0].Frame = f
		if got := digestTrace(mut); got == fwd {
			t.Error("digest missed a mutated frame byte")
		}
	}
}
