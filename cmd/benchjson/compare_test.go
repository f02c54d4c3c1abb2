package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// testBounds mirrors the shape of BENCHMARK.json's end_to_end list;
// TestReadBoundsFromBenchmarkJSON checks the real file parses.
var testBounds = []bound{
	{Name: "wall_s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Better: "lower", Bound: 0.15},
	{Name: "work_per_s", Better: "higher", Bound: 0.25},
}

// baseMetrics are one workload's metrics at the parent: the
// end-to-end ones an untraced run prints and the counters and
// mallocs a traced run prints.
var baseMetrics = map[string]float64{
	"wall_s": 4, "cpu_s": 4, "alloc_mb": 40, "work_per_s": 240000,
	"runtime.mallocs": 800000,
	"sim.tx":          945940, "sniffer.records": 718148, "dedup.dropped": 0,
	"analysis.frames": 718148, "capture.records": 0,
	"eventq.events": 4382889, "eventq.heap_ops": 6618103, "eventq.deferrals": 491720,
	"sim.links_per_row": 96,
}

// line builds one tagged result line; scale multiplies the named
// metrics of baseMetrics.
func line(workload, side string, pair, trace int, scale map[string]float64) entry {
	m := map[string]any{}
	for k, v := range baseMetrics {
		if s, ok := scale[k]; ok {
			v *= s
		}
		m[k] = map[string]float64{"value": v}
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload, "side": side, "pair": pair, "trace": trace,
		"result": map[string]any{"correct": true, "attempted": 3, "failed": 0, "metrics": m},
	})
	if err != nil {
		panic(err)
	}
	es, err := readEntries(strings.NewReader(string(data)))
	if err != nil {
		panic(err)
	}
	return es[0]
}

// run makes n alternated untraced pairs and one traced pair of a
// workload, with head's metrics scaled by headScale (untraced) and
// tracedScale (traced).
func run(workload string, n int, headScale, tracedScale map[string]float64) []entry {
	var es []entry
	for p := 0; p < n; p++ {
		b, h := line(workload, "base", p, 0, nil), line(workload, "head", p, 0, headScale)
		if p%2 == 1 {
			b, h = h, b
		}
		es = append(es, b, h)
	}
	return append(es, line(workload, "base", 0, 1, nil), line(workload, "head", 0, 1, tracedScale))
}

func mustCompare(t *testing.T, es []entry, goldensChanged bool) *verdict {
	t.Helper()
	v, err := compare(es, testBounds, goldensChanged)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// wantFailures checks that the failures name exactly the given
// "workload metric" prefixes.
func wantFailures(t *testing.T, v *verdict, prefixes ...string) {
	t.Helper()
	if len(v.failures) != len(prefixes) {
		t.Fatalf("failures = %q, want %d naming %q", v.failures, len(prefixes), prefixes)
	}
	for i, p := range prefixes {
		if !strings.HasPrefix(v.failures[i], p) {
			t.Errorf("failure %d = %q, want it to name %q", i, v.failures[i], p)
		}
	}
}

func TestCompareFailsOnInjectedSlowdown(t *testing.T) {
	// A 30% slowdown in wall and CPU time on one workload trips its
	// 25% bounds; the other workload is untouched.
	es := append(run("grid256", 5, map[string]float64{"wall_s": 1.3, "cpu_s": 1.3}, nil), run("day", 5, nil, nil)...)
	v := mustCompare(t, es, false)
	if v.pairs != 10 {
		t.Errorf("compared %d pairs, want 10", v.pairs)
	}
	wantFailures(t, v, "grid256 wall_s: median head/parent +30.0% over 5 pairs", "grid256 cpu_s")
}

func TestComparePassesWithinTolerance(t *testing.T) {
	v := mustCompare(t, run("day", 5, map[string]float64{"wall_s": 1.1, "alloc_mb": 1.1, "work_per_s": 0.9}, nil), false)
	wantFailures(t, v)
}

func TestCompareAlternatedPairs(t *testing.T) {
	// Pairs are matched by index, whichever side ran first, and the
	// median over pairs is what is gated: two slow outliers out of
	// five do not fail, three do.
	outliers := func(n int) []entry {
		es := run("day", 5, nil, nil)
		for i := range es {
			e := &es[i]
			if e.Side == "head" && e.Trace == 0 && e.Pair < n {
				e.Result.Metrics["wall_s"] = value{baseMetrics["wall_s"] * 2}
			}
		}
		return es
	}
	if es := outliers(2); es[2].Side != "head" || es[3].Side != "base" {
		t.Fatalf("pair 1 should list head first: %q, %q", es[2].Side, es[3].Side)
	}
	wantFailures(t, mustCompare(t, outliers(2), false))
	wantFailures(t, mustCompare(t, outliers(3), false), "day wall_s: median head/parent +100.0%")
}

func TestCompareHigherIsBetter(t *testing.T) {
	// work_per_s is better higher: 30% less work per second fails its
	// bound, 30% more is a gain.
	wantFailures(t, mustCompare(t, run("day", 5, map[string]float64{"work_per_s": 0.7}, nil), false),
		"day work_per_s: median head/parent -30.0% over 5 pairs, bound -25%")
	wantFailures(t, mustCompare(t, run("day", 5, map[string]float64{"work_per_s": 1.3}, nil), false))
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	// runtime.mallocs comes from the traced pair and is gated at
	// alloc_mb's 15% bound, as alloc_mb itself is.
	wantFailures(t, mustCompare(t, run("day", 5, nil, map[string]float64{"runtime.mallocs": 1.2}), false),
		"day runtime.mallocs: median head/parent +20.0% over 1 traced pairs, bound +15%")
	wantFailures(t, mustCompare(t, run("day", 5, map[string]float64{"alloc_mb": 1.2}, nil), false), "day alloc_mb")
}

func TestCompareZeroAllocBaselineIsStrict(t *testing.T) {
	// Anything is infinitely worse than a parent's zero.
	es := run("day", 5, nil, nil)
	for i := range es {
		if es[i].Trace == 1 {
			v := 0.0
			if es[i].Side == "head" {
				v = 1
			}
			es[i].Result.Metrics["runtime.mallocs"] = value{v}
		}
	}
	wantFailures(t, mustCompare(t, es, false), "day runtime.mallocs: median head/parent +Inf%")
}

func TestCompareRejectsInvalidBaseline(t *testing.T) {
	// A NaN, negative or infinite value, or a missing metric, is a
	// corrupt line: dividing by it would pass or fail the gate by
	// accident, so the comparison errors instead.
	for _, bad := range []float64{math.NaN(), -5, math.Inf(1)} {
		es := run("day", 5, nil, nil)
		es[0].Result.Metrics["wall_s"] = value{bad}
		if _, err := compare(es, testBounds, false); err == nil {
			t.Errorf("parent wall_s=%v did not error", bad)
		}
	}
	es := run("day", 5, nil, nil)
	delete(es[len(es)-1].Result.Metrics, "sim.tx")
	if _, err := compare(es, testBounds, false); err == nil {
		t.Error("a traced head line without sim.tx did not error")
	}
	es = run("day", 5, nil, nil)
	es = append(es, es[0])
	if _, err := compare(es, testBounds, false); err == nil {
		t.Error("two base lines for one pair did not error")
	}
	for _, text := range []string{
		`{"workload":"day","side":"parent","pair":0,"trace":0,"result":{}}`,
		`{"workload":"day","side":"head","pair":0,"trace":2,"result":{}}`,
		`{"workload":"","side":"head","pair":0,"trace":0,"result":{}}`,
		`{"workload":"day"`,
	} {
		if _, err := readEntries(strings.NewReader(text)); err == nil {
			t.Errorf("malformed line %s did not error", text)
		}
	}
}

func TestCompareFailsOnIncorrectHead(t *testing.T) {
	es := run("analyze", 5, nil, nil)
	es[2].Result.Correct = false // pair 1 lists head first
	wantFailures(t, mustCompare(t, es, false), "analyze: head run (pair 1, trace 0) reported correct:false")
}

func TestCompareFailsOnLargerFailedShare(t *testing.T) {
	es := run("ingest", 5, nil, nil)
	for i := range es {
		es[i].Result.Attempted, es[i].Result.Failed = 600000, 1
	}
	// An equal share passes; one more failed operation at head fails.
	wantFailures(t, mustCompare(t, es, false))
	es[1].Result.Failed = 2
	wantFailures(t, mustCompare(t, es, false), "ingest: head failed 7 of 3600000 operations, the parent 6 of 3600000")
}

func TestCompareTraceCounterNeedsGoldens(t *testing.T) {
	// A sniffer that loses one record in a thousand changes what was
	// captured: that fails, unless the same change regenerated the
	// goldens.
	es := run("day", 5, nil, map[string]float64{"sniffer.records": 0.999, "analysis.frames": 0.999})
	v := mustCompare(t, es, false)
	wantFailures(t, v, "day sniffer.records: 718148 -> 717429.852", "day analysis.frames")
	v = mustCompare(t, es, true)
	wantFailures(t, v)
	var buf strings.Builder
	if err := writeDeltaTable(&buf, v); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diff, goldens changed") {
		t.Fatalf("table does not show the allowed diff:\n%s", buf.String())
	}
}

func TestCompareBookkeepingCounterPrinted(t *testing.T) {
	// Fewer heap operations is how a perf change shows in the event
	// queue: reported by name, never failed.
	v := mustCompare(t, run("grid256", 5, nil, map[string]float64{"eventq.heap_ops": 0.9, "sim.links_per_row": 0.5}), false)
	wantFailures(t, v)
	var buf strings.Builder
	if err := writeDeltaTable(&buf, v); err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, "eventq.heap_ops") && !strings.Contains(l, "-10.0%") {
			t.Errorf("heap_ops row lacks its delta: %q", l)
		}
		if strings.Contains(l, "heap_ops") || strings.Contains(l, "links_per_row") {
			if !strings.HasSuffix(strings.TrimSpace(l), "diff") {
				t.Errorf("row not marked as a diff: %q", l)
			}
		}
	}
}

func TestCompareSkipsDisjointButRejectsEmptyIntersection(t *testing.T) {
	// A workload only head runs (new at head) is skipped; the shared
	// one is still gated.
	es := run("day", 5, map[string]float64{"wall_s": 2}, nil)
	for _, e := range run("ingest-pcap", 5, nil, nil) {
		if e.Side == "head" {
			es = append(es, e)
		}
	}
	v := mustCompare(t, es, false)
	if v.pairs != 5 {
		t.Errorf("compared %d pairs, want 5", v.pairs)
	}
	wantFailures(t, v, "day wall_s")

	var headOnly []entry
	for _, e := range run("day", 5, nil, nil) {
		if e.Side == "head" {
			headOnly = append(headOnly, e)
		}
	}
	if _, err := compare(headOnly, testBounds, false); err == nil {
		t.Fatal("no complete pair did not error; a renamed workload would disable the gate")
	}

	// Untraced pairs without a traced one leave the counters unchecked,
	// which must not pass silently.
	var untraced []entry
	for _, e := range run("day", 5, nil, nil) {
		if e.Trace == 0 {
			untraced = append(untraced, e)
		}
	}
	if _, err := compare(untraced, testBounds, false); err == nil {
		t.Fatal("a workload without a traced pair did not error")
	}
}

func TestDeltaTable(t *testing.T) {
	es := append(run("day", 5, map[string]float64{"wall_s": 0.9, "cpu_s": 1.1}, nil), run("grid256", 5, nil, nil)...)
	v := mustCompare(t, es, false)
	var buf strings.Builder
	if err := writeDeltaTable(&buf, v); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header, then per workload: the failed share, 4 end-to-end
	// metrics, runtime.mallocs, 5 trace and 4 bookkeeping counters.
	if want := 1 + 2*(1+4+1+5+4); len(lines) != want {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), want, out)
	}
	// Improvements show as negative deltas, regressions positive.
	if !strings.Contains(out, "-10.0%") || !strings.Contains(out, "+10.0%") {
		t.Fatalf("missing signed deltas:\n%s", out)
	}
	for _, want := range []string{"day", "grid256", "wall_s", "runtime.mallocs", "sim.tx", "+25%", "-25%", "+15%", "exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("passing comparison shows a FAIL:\n%s", out)
	}
}

func TestDeltaTableEmptyIntersection(t *testing.T) {
	es := []entry{line("day", "base", 0, 0, nil), line("grid256", "head", 0, 0, nil)}
	if _, err := compare(es, testBounds, false); err == nil {
		t.Fatal("empty intersection did not error")
	}
}

func TestReadBoundsFromBenchmarkJSON(t *testing.T) {
	// The gate's directions and bounds are BENCHMARK.json's own.
	bs, err := readBounds("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, b := range bs {
		got[b.Name] = b.Better
	}
	for name, want := range map[string]string{"wall_s": "lower", "alloc_mb": "lower", "work_per_s": "higher"} {
		if got[name] != want {
			t.Errorf("%s better = %q, want %q", name, got[name], want)
		}
	}
	// A typo in a direction must not silently gate the wrong way, and
	// runtime.mallocs needs alloc_mb's bound.
	dir := t.TempDir()
	for i, doc := range []string{
		`{"end_to_end":[{"name":"alloc_mb","better":"lower","bound":0.15},{"name":"work_per_s","better":"Higher","bound":0.25}]}`,
		`{"end_to_end":[{"name":"alloc_mb","better":"lower","bound":0}]}`,
		`{"end_to_end":[{"name":"wall_s","better":"lower","bound":0.25}]}`,
	} {
		path := fmt.Sprintf("%s/%d.json", dir, i)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readBounds(path); err == nil {
			t.Errorf("readBounds accepted %s", doc)
		}
	}
}
