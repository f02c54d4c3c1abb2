// Command benchjson is the perf gate's comparator. It judges head
// against the parent from the perfbench result lines that
// .github/perfgate.sh collects, each tagged with its workload, side
// (base is the parent), pair and --trace mode:
//
//	benchjson [-goldens-changed] results.jsonl
//
// End-to-end metrics are gated on the median over untraced pairs of
// head ÷ parent, within BENCHMARK.json's bounds (read from the working
// directory); runtime.mallocs from the traced pairs at alloc_mb's.
// Head must be correct and fail no larger a share than the parent.
// Counters are compared exactly: a trace-visible one may differ only
// with -goldens-changed (the change regenerated
// internal/workload/testdata/goldens.json), a bookkeeping one is only
// reported. The delta table is always printed; the exit status is 1
// when head fails, with each reason named, and 2 when the input
// cannot be judged.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
)

func main() {
	goldensChanged := flag.Bool("goldens-changed", false, "the change also rewrites internal/workload/testdata/goldens.json, so trace-visible counters may move")
	flag.Parse()
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
	}
	if flag.NArg() != 1 {
		check(fmt.Errorf("want one results file, got %d arguments", flag.NArg()))
	}
	bounds, err := readBounds("BENCHMARK.json")
	check(err)
	data, err := os.ReadFile(flag.Arg(0))
	check(err)
	entries, err := readEntries(bytes.NewReader(data))
	check(err)
	v, err := compare(entries, bounds, *goldensChanged)
	check(err)
	check(writeDeltaTable(os.Stdout, v))
	for _, f := range v.failures {
		fmt.Println("FAIL", f)
	}
	fmt.Printf("benchjson: %d untraced pair(s) compared against the parent, %d failure(s)\n", v.pairs, len(v.failures))
	if len(v.failures) > 0 {
		os.Exit(1)
	}
}
