package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The benchmark must keep running unchanged while the deprecated
// surfaces are deleted, so it may depend only on Runner.Execute (with
// the RunSpecOpts fields below), the workload builders, the
// experiment stages, analysis, capture, report and the versioned
// wland API. These are the surfaces it must not touch.
var (
	forbiddenImports = []string{
		"wlan80211/internal/core",
		"wlan80211/internal/snapshot",
		"wlan80211/internal/detrand",
		"wlan80211/internal/experiment/faultinject",
	}
	// forbiddenNames are identifiers of deprecated entry points,
	// mid-run snapshots and the RunSpecOpts fields outside the allowed
	// set.
	forbiddenNames = map[string]bool{
		"Engine": true, "RunReduce": true, "RunCampaign": true, "ResumeCampaign": true,
		"CheckpointMicros": true, "Checkpointable": true, "StreamSlices": true,
		"RunStreamSlices": true, "CaptureState": true,
		"Resume": true, "Injector": true, "Specs": true, "Range": true,
	}
	allowedRunSpecOpts = map[string]bool{"Matrix": true, "Mode": true, "Workers": true, "CampaignDir": true}
)

// surfaceViolations parses one Go source file and reports every use
// of a forbidden surface.
func surfaceViolations(name string, src any) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), fmt.Sprintf(format, args...)))
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		for _, bad := range forbiddenImports {
			if path == bad {
				report(imp, "imports %s", path)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if forbiddenNames[n.Name] {
				report(n, "uses %s", n.Name)
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "sim" && n.Sel.Name == "NearestAP" {
				report(n, "uses the package-level sim.NearestAP")
			}
		case *ast.CompositeLit:
			if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "RunSpecOpts" {
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						report(elt, "RunSpecOpts literal without field names")
						continue
					}
					if k, ok := kv.Key.(*ast.Ident); ok && !allowedRunSpecOpts[k.Name] {
						report(kv, "sets RunSpecOpts.%s", k.Name)
					}
				}
			}
		case *ast.BasicLit:
			if n.Kind != token.STRING {
				break
			}
			s, _ := strconv.Unquote(n.Value)
			for i := strings.Index(s, "/api/"); i >= 0; {
				if !strings.HasPrefix(s[i+len("/api/"):], "v1/") {
					report(n, "uses the unversioned route in %q", s)
					break
				}
				next := strings.Index(s[i+1:], "/api/")
				if next < 0 {
					break
				}
				i += 1 + next
			}
		}
		return true
	})
	return out, nil
}

func TestUsesOnlyLastingSurfaces(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		found, err := surfaceViolations(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range found {
			t.Error(v)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no benchmark sources found")
	}
}

func TestSurfaceCheckFindsViolations(t *testing.T) {
	src := `package main

import "wlan80211/internal/snapshot"

func f() {
	experiment.ResumeCampaign(ctx, dir, opts)
	_ = experiment.RunSpecOpts{Matrix: m, Resume: true}
	_ = sim.NearestAP(nodes, pos)
	_ = "/api/sessions/" + id + "/ingest"
	_ = "/api/v1/sessions"
}
`
	found, err := surfaceViolations("sample.go", src)
	if err != nil {
		t.Fatal(err)
	}
	// snapshot import, ResumeCampaign, the Resume key (as a field and
	// as an identifier), NearestAP, and the unversioned route.
	if len(found) != 6 {
		t.Fatalf("found %d violations, want 6:\n%s", len(found), strings.Join(found, "\n"))
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables the program
// reports in step with the BENCHMARK.json the benchmark is run by.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(vals, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
