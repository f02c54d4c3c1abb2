package experiment

import (
	"context"
	"fmt"

	"wlan80211/internal/experiment/faultinject"
)

// This file is the single entry point for running experiments:
// Runner.Execute(RunSpecOpts) takes one options struct that
// JSON-round-trips (minus in-process escape hatches) — the value a
// remote-worker protocol hands out — and returns one result shape for
// every mode.

// RunMode selects Runner.Execute's execution strategy.
type RunMode string

const (
	// ModeCollect runs every spec and retains per-run results.
	ModeCollect RunMode = "collect"
	// ModeReduce folds summaries as runs complete, dropping each
	// run's full analysis Result — O(groups+workers) memory.
	ModeReduce RunMode = "reduce"
	// ModeCampaign runs as a crash-resumable journaled campaign in
	// CampaignDir.
	ModeCampaign RunMode = "campaign"
)

// SpecRange restricts execution to the expanded matrix's spec indices
// [From, To). Spec indices are global — defined by Matrix.Expand order
// — so a range names the same runs on every machine, which is what
// lets a coordinator lease disjoint ranges to workers and fold their
// journals back in global spec order.
type SpecRange struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Contains reports whether spec index i falls in the range.
func (r *SpecRange) Contains(i int) bool {
	return r == nil || (i >= r.From && i < r.To)
}

// validate checks the range against an expanded spec count.
func (r *SpecRange) validate(n int) error {
	if r == nil {
		return nil
	}
	if r.From < 0 || r.To > n || r.From >= r.To {
		return fmt.Errorf("experiment: spec range [%d,%d) invalid for %d specs", r.From, r.To, n)
	}
	return nil
}

// RunSpecOpts is the single serializable description of "what to
// run": the matrix, the execution mode, and the mode's knobs. The
// dispatch coordinator hands one of these (matrix + campaign knobs +
// a spec range) to each worker; in-process callers use the same
// struct, optionally with the non-serializable escape hatches.
type RunSpecOpts struct {
	// Matrix is the seeds × scales × scenarios grid to expand.
	Matrix Matrix `json:"matrix"`
	// Mode selects the strategy; empty means ModeCollect.
	Mode RunMode `json:"mode,omitempty"`
	// Workers bounds concurrent runs; <=0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Metrics selects analysis stages by name (empty = all).
	Metrics []string `json:"metrics,omitempty"`
	// Range restricts execution to spec indices [From, To) of the
	// expanded matrix; nil means every spec.
	Range *SpecRange `json:"range,omitempty"`

	// CampaignDir is the journaled campaign directory (ModeCampaign).
	CampaignDir string `json:"campaign_dir,omitempty"`
	// Resume continues the campaign already in CampaignDir: the
	// on-disk manifest is authoritative and Matrix, Metrics, and Range
	// are taken from it.
	Resume bool `json:"resume,omitempty"`

	// Specs overrides Matrix expansion with pre-built specs — an
	// in-process escape hatch for callers that already expanded or
	// built custom scenarios. Not serializable, not valid with
	// ModeCampaign.
	Specs []Spec `json:"-"`
	// Injector arms a deterministic crash point (ModeCampaign tests).
	Injector *faultinject.Injector `json:"-"`
}

// Execution is what Runner.Execute produced. Fields are filled per
// mode; Aggregates is always set on success (and on interruption, for
// the runs that did complete).
type Execution struct {
	// Specs are the executed specs: the expanded matrix restricted to
	// Range (ModeCollect/ModeReduce), or the full expansion
	// (ModeCampaign, where Range restricts running, not folding).
	Specs []Spec
	// Results holds per-run results in spec order (ModeCollect only).
	Results []RunResult
	// Errs holds per-spec errors in spec order, nil entries for
	// successes; undispatched specs of an interrupted run carry the
	// context error (ModeCollect and ModeReduce).
	Errs []error
	// Aggregates are the scenario+scale group reductions.
	Aggregates []Aggregated
	// Campaign is the campaign state (ModeCampaign only), including
	// partial state when the run was interrupted.
	Campaign *CampaignResult
	// PeakPending is how many completed-but-not-yet-folded runs the
	// worker pool held at once (≤ the worker count) — the retention
	// reduce mode's memory claim rests on.
	PeakPending int
}

// Runner executes experiment matrices. The zero value is ready to use.
type Runner struct{}

// Execute runs one experiment described by opts and returns its
// Execution. Every mode runs on one ordered worker pool and differs
// only in what it keeps of each run: collect keeps the RunResult,
// reduce drops the analysis Result once summarized, and a campaign
// journals each run and places its record. On cooperative
// cancellation no further runs are dispatched, in-flight runs finish,
// and the completed runs are still aggregated and returned: collect
// and reduce mark the undispatched specs with the context error, and
// a campaign returns its partial state alongside it.
func (r *Runner) Execute(ctx context.Context, opts RunSpecOpts) (*Execution, error) {
	mode := opts.Mode
	if mode == "" {
		mode = ModeCollect
	}
	if mode == ModeCampaign {
		return executeCampaign(ctx, opts)
	}
	if mode != ModeCollect && mode != ModeReduce {
		return nil, fmt.Errorf("experiment: unknown run mode %q", mode)
	}

	specs := opts.Specs
	if specs == nil {
		var err error
		if specs, err = opts.Matrix.Expand(); err != nil {
			return nil, err
		}
	}
	if err := opts.Range.validate(len(specs)); err != nil {
		return nil, err
	}
	if opts.Range != nil {
		specs = specs[opts.Range.From:opts.Range.To]
	}

	ex := &Execution{Specs: specs, Errs: make([]error, len(specs))}
	if mode == ModeCollect {
		ex.Results = make([]RunResult, len(specs))
	}
	var agg aggregator
	fold := func(i int, rr RunResult) bool {
		ex.Errs[i] = rr.Err
		agg.add(rr.Spec, rr.Summary, rr.Err)
		if ex.Results != nil {
			ex.Results[i] = rr
		}
		return false
	}
	run := func(i int) RunResult {
		rr, _ := runOne(specs[i], opts.Metrics, false)
		if mode == ModeReduce {
			rr.Result = nil // reduce-as-you-go: only the Summary survives
		}
		return rr
	}
	n, peak := runOrdered(ctx, len(specs), opts.Workers, run, fold)
	for j := n; j < len(specs); j++ {
		fold(j, RunResult{Spec: specs[j], Err: ctx.Err()})
	}
	ex.Aggregates = agg.result()
	ex.PeakPending = peak
	return ex, nil
}

// executeCampaign is Execute's ModeCampaign arm: create-or-continue
// (Resume=false, Matrix authoritative and checked against any existing
// manifest) or resume (Resume=true, manifest authoritative).
func executeCampaign(ctx context.Context, opts RunSpecOpts) (*Execution, error) {
	if opts.CampaignDir == "" {
		return nil, fmt.Errorf("experiment: ModeCampaign requires CampaignDir")
	}
	if opts.Specs != nil {
		return nil, fmt.Errorf("experiment: ModeCampaign runs from a Matrix, not pre-built Specs (the journal must re-expand them on resume)")
	}
	var man *Manifest
	if !opts.Resume {
		man = &Manifest{Matrix: opts.Matrix, Metrics: opts.Metrics, Range: opts.Range}
	}
	c, err := OpenCampaign(opts.CampaignDir, man)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	opts.Metrics, opts.Range = c.Manifest.Metrics, c.Manifest.Range
	res, peak, err := runCampaign(ctx, c, opts)
	return &Execution{Specs: res.Specs, Aggregates: res.Aggregates, Campaign: res, PeakPending: peak}, err
}
