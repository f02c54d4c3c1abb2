package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// traceCounters count what a run simulated, captured, deduplicated,
// read and analyzed; bookkeepingCounters count how the work was done.
var (
	traceCounters       = []string{"sim.tx", "sniffer.records", "dedup.dropped", "analysis.frames", "capture.records"}
	bookkeepingCounters = []string{"eventq.events", "eventq.heap_ops", "eventq.deferrals", "sim.links_per_row"}
)

// runtime.mallocs, from the traced runs, is gated at alloc_mb's bound.
const mallocMetric, mallocBound = "runtime.mallocs", "alloc_mb"

// bound is one BENCHMARK.json end_to_end entry: how far, as a fraction
// of the parent's value, head may move the metric the wrong way.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds loads a BENCHMARK.json's end_to_end entries, so the gate
// and the benchmark's declaration cannot drift apart.
func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, b := range spec.EndToEnd {
		if (b.Better != "lower" && b.Better != "higher") || !(b.Bound > 0) {
			return nil, fmt.Errorf("%s: %s: want better lower|higher and a positive bound, got %q %v", path, b.Name, b.Better, b.Bound)
		}
	}
	if !slices.ContainsFunc(spec.EndToEnd, func(b bound) bool { return b.Name == mallocBound }) {
		return nil, fmt.Errorf("%s: no %s entry to gate %s at", path, mallocBound, mallocMetric)
	}
	return spec.EndToEnd, nil
}

// entry is one perfbench result line as the gate script tags it: the
// workload, which tree ran it, the pair it belongs to (both sides of a
// pair share a seed) and whether it was a --trace 1 run.
type entry struct {
	Workload string `json:"workload"`
	Side     string `json:"side"`
	Pair     int    `json:"pair"`
	Trace    int    `json:"trace"`
	Result   struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	} `json:"result"`
}

type value struct{ Value float64 }

// readEntries decodes a stream of tagged result lines.
func readEntries(r io.Reader) ([]entry, error) {
	dec := json.NewDecoder(r)
	var out []entry
	for {
		var e entry
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("result line %d: %w", len(out)+1, err)
		}
		if e.Workload == "" || (e.Side != "base" && e.Side != "head") || (e.Trace != 0 && e.Trace != 1) {
			return nil, fmt.Errorf("result line %d: want a workload, side base|head and trace 0|1, got %q %q %d", len(out)+1, e.Workload, e.Side, e.Trace)
		}
		out = append(out, e)
	}
}

// verdict is the gate's judgement: the delta table's rows, the named
// reasons head fails, and how many untraced pairs were compared.
type verdict struct {
	rows     [][7]string // workload, metric, parent, head, Δ, bound, verdict
	failures []string
	pairs    int
}

type pair struct{ base, head *entry }

// compare judges head against the parent from paired result lines, as
// the package comment describes. A line without its partner is
// skipped, and so is a workload with no complete untraced pair (one
// side lacks it). It is an error when nothing is compared (a renamed
// workload must not disarm the gate), when a compared workload has no
// traced pair, or when a metric is missing, negative, infinite or NaN:
// dividing by one would pass or fail the gate by accident.
func compare(entries []entry, bounds []bound, goldensChanged bool) (*verdict, error) {
	need := [2][]string{nil, slices.Concat([]string{mallocMetric}, traceCounters, bookkeepingCounters)}
	for _, b := range bounds {
		need[0] = append(need[0], b.Name)
	}
	type key struct {
		workload    string
		trace, pair int
	}
	sides := map[key]*pair{} // base, head
	for i := range entries {
		e := &entries[i]
		for _, name := range need[e.Trace] {
			if m, ok := e.Result.Metrics[name]; !ok || !(m.Value >= 0) || math.IsInf(m.Value, 1) {
				return nil, fmt.Errorf("%s %s pair %d trace %d: missing or invalid %s", e.Workload, e.Side, e.Pair, e.Trace, name)
			}
		}
		p := sides[key{e.Workload, e.Trace, e.Pair}]
		if p == nil {
			p = &pair{}
			sides[key{e.Workload, e.Trace, e.Pair}] = p
		}
		slot := &p.base
		if e.Side == "head" {
			slot = &p.head
		}
		if *slot != nil {
			return nil, fmt.Errorf("%s pair %d trace %d: two %s lines", e.Workload, e.Pair, e.Trace, e.Side)
		}
		*slot = e
	}
	complete := map[string]*[2][]pair{} // untraced, traced
	var workloads []string
	for i := range entries { // in input order, so the output is stable
		e := &entries[i]
		if p := sides[key{e.Workload, e.Trace, e.Pair}]; p.head == e && p.base != nil {
			if complete[e.Workload] == nil {
				complete[e.Workload] = &[2][]pair{}
				workloads = append(workloads, e.Workload)
			}
			complete[e.Workload][e.Trace] = append(complete[e.Workload][e.Trace], *p)
		}
	}

	v := &verdict{}
	for _, w := range workloads {
		untraced, traced := complete[w][0], complete[w][1]
		if len(untraced) == 0 {
			continue
		}
		if len(traced) == 0 {
			return nil, fmt.Errorf("%s: no traced pair, so its counters cannot be checked", w)
		}
		v.pairs += len(untraced)
		v.judge(w, untraced, traced, bounds, goldensChanged)
	}
	if v.pairs == 0 {
		return nil, fmt.Errorf("no workload has a complete base/head pair: nothing to compare")
	}
	return v, nil
}

func (v *verdict) fail(format string, args ...any) {
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
}

func (v *verdict) judge(w string, untraced, traced []pair, bounds []bound, goldensChanged bool) {
	var failed, attempted [2]int64 // parent, head
	for _, p := range slices.Concat(untraced, traced) {
		if !p.head.Result.Correct {
			v.fail("%s: head run (pair %d, trace %d) reported correct:false", w, p.head.Pair, p.head.Trace)
		}
		failed[0], attempted[0] = failed[0]+p.base.Result.Failed, attempted[0]+p.base.Result.Attempted
		failed[1], attempted[1] = failed[1]+p.head.Result.Failed, attempted[1]+p.head.Result.Attempted
	}
	ok := "ok"
	if share := func(i int) float64 { return float64(failed[i]) / float64(max(attempted[i], 1)) }; share(1) > share(0) {
		ok = "FAIL"
		v.fail("%s: head failed %d of %d operations, the parent %d of %d", w, failed[1], attempted[1], failed[0], attempted[0])
	}
	v.rows = append(v.rows, [7]string{w, "failed/attempted", fmt.Sprintf("%d/%d", failed[0], attempted[0]),
		fmt.Sprintf("%d/%d", failed[1], attempted[1]), "", "≤ parent", ok})

	for _, b := range bounds {
		v.gateRatio(w, b.Name, b, untraced, "pairs")
	}
	for _, b := range bounds {
		if b.Name == mallocBound {
			v.gateRatio(w, mallocMetric, b, traced, "traced pairs")
		}
	}
	for _, name := range slices.Concat(traceCounters, bookkeepingCounters) {
		v.checkCounter(w, name, traced, goldensChanged)
	}
}

// gateRatio gates one metric on the median over pairs of head ÷ parent.
func (v *verdict) gateRatio(w, name string, b bound, pairs []pair, what string) {
	bv, hv := values(name, pairs)
	r := ratioMedian(bv, hv)
	limit, ok := fmt.Sprintf("+%.0f%%", b.Bound*100), "ok"
	worse := r > 1+b.Bound
	if b.Better == "higher" {
		limit, worse = fmt.Sprintf("-%.0f%%", b.Bound*100), r < 1-b.Bound
	}
	if worse {
		ok = "FAIL"
		v.fail("%s %s: median head/parent %s over %d %s, bound %s", w, name, pct(r), len(pairs), what, limit)
	}
	v.rows = append(v.rows, [7]string{w, name, fmt.Sprintf("%.6g", median(bv)), fmt.Sprintf("%.6g", median(hv)), pct(r), limit, ok})
}

// checkCounter compares one deterministic counter exactly over the
// traced pairs. A trace-visible counter may differ only when the same
// change regenerated the goldens; a bookkeeping one is reported.
func (v *verdict) checkCounter(w, name string, traced []pair, goldensChanged bool) {
	bv, hv := values(name, traced)
	r := [7]string{w, name, fmt.Sprintf("%.10g", median(bv)), fmt.Sprintf("%.10g", median(hv)), "=", "exact", "ok"}
	if !slices.Equal(bv, hv) {
		r[4] = pct(ratioMedian(bv, hv))
		switch {
		case slices.Contains(bookkeepingCounters, name):
			r[6] = "diff"
		case goldensChanged:
			r[6] = "diff, goldens changed"
		default:
			r[6] = "FAIL"
			v.fail("%s %s: %s -> %s, a trace-visible counter changed but goldens.json did not", w, name, r[2], r[3])
		}
	}
	v.rows = append(v.rows, r)
}

// values returns one metric's parent and head values, pair by pair.
func values(name string, pairs []pair) (base, head []float64) {
	for _, p := range pairs {
		base = append(base, p.base.Result.Metrics[name].Value)
		head = append(head, p.head.Result.Metrics[name].Value)
	}
	return base, head
}

// ratioMedian is the median of the per-pair ratios head ÷ parent. A
// parent value of 0 gives a ratio of 1 when head is 0 too, and +Inf
// otherwise: anything is infinitely worse than nothing.
func ratioMedian(base, head []float64) float64 {
	ratios := make([]float64, len(base))
	for i := range base {
		ratios[i] = head[i] / base[i]
		if head[i] == base[i] {
			ratios[i] = 1
		}
	}
	return median(ratios)
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func pct(ratio float64) string { return fmt.Sprintf("%+.1f%%", (ratio-1)*100) }

// writeDeltaTable renders every compared metric: the parent's and
// head's median values, the median head/parent change, the bound and
// the verdict.
func writeDeltaTable(w io.Writer, v *verdict) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\thead\tΔ\tbound\tverdict")
	for _, r := range v.rows {
		fmt.Fprintln(tw, strings.Join(r[:], "\t"))
	}
	return tw.Flush()
}
