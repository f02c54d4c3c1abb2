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
	// ModeReduce keeps only each run's record (its summary),
	// dropping the full analysis Result once summarized, so at most
	// the worker count of Results is alive at once.
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

// Execution is what Runner.Execute produced.
type Execution struct {
	// Campaign holds every mode's per-run records, in global spec
	// order, and the scenario+scale aggregates. Only runs that ran
	// have a record: in collect and reduce mode a failed run's carries
	// its error, a campaign places only the runs that completed, and
	// its records alone carry a trace hash. An interrupted run's
	// undispatched specs have none, and the completed runs are still
	// aggregated.
	Campaign *CampaignResult
	// Results holds per-run results in Range order (ModeCollect only).
	Results []RunResult
	// Errs holds per-run errors in Range order, nil entries for
	// successes; undispatched specs of an interrupted run carry the
	// context error (ModeCollect and ModeReduce).
	Errs []error
	// PeakPending is how many completed-but-not-yet-folded runs the
	// worker pool held at once (≤ the worker count): the only
	// retention besides each run's record, which reduce mode's memory
	// claim rests on.
	PeakPending int
}

// Runner executes experiment matrices. The zero value is ready to use.
type Runner struct{}

// Execute runs one experiment described by opts and returns its
// Execution. Every mode runs the pending specs through one fold on one
// ordered worker pool and differs only in what it keeps of each run:
// collect keeps the RunResult, reduce drops the analysis Result once
// summarized, and a campaign hashes the trace and journals the record.
// Collect and reduce record a failed run's error and go on; a campaign
// stops dispatching at its first failed run and returns that error.
// On cooperative cancellation no further runs are dispatched, in-flight
// runs finish, and the completed runs are still aggregated and
// returned: collect and reduce mark the undispatched specs with the
// context error in Errs, and a campaign returns its partial state
// alongside it. In every mode an undispatched spec gets no record and
// no Done mark, so one interrupted matrix reports the same runs plain
// or as a campaign.
func (r *Runner) Execute(ctx context.Context, opts RunSpecOpts) (*Execution, error) {
	mode := opts.Mode
	if mode == "" {
		mode = ModeCollect
	}
	var (
		res *CampaignResult
		j   *journal // campaign mode only
	)
	switch mode {
	case ModeCampaign:
		c, err := openCampaign(opts)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		res, j = c.Result, c.j
		opts.Metrics, opts.Range = c.Manifest.Metrics, c.Manifest.Range
	case ModeCollect, ModeReduce:
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
		res, _ = foldRecords(specs, nil) // nothing to fold: cannot fail
	default:
		return nil, fmt.Errorf("experiment: unknown run mode %q", mode)
	}

	// A range-restricted run (a dispatch worker's shard) only runs its
	// indices; records and the fold stay global.
	var pending []int
	for i := range res.Specs {
		if !res.Done[i] && opts.Range.Contains(i) {
			pending = append(pending, i)
		}
	}
	ex := &Execution{Campaign: res}
	if j == nil {
		ex.Errs = make([]error, len(pending))
	}
	if mode == ModeCollect {
		ex.Results = make([]RunResult, len(pending))
	}
	workers := opts.Workers
	if opts.Injector != nil {
		workers = 1 // reproducible crash instants
	}
	run := func(k int) cell {
		c := runCell(res.Specs[pending[k]], pending[k], opts.Metrics, j, opts.Injector)
		if mode != ModeCollect {
			c.rr.Result = nil // only the Summary survives
		}
		return c
	}
	var firstErr error
	fold := func(k int, c cell) bool {
		i := pending[k]
		if j != nil && c.rr.Err != nil {
			if sp := res.Specs[i]; firstErr == nil { // in-flight runs still fold after the stop
				firstErr = fmt.Errorf("run %d (%s seed=%d scale=%g): %w", i, sp.Name, sp.Seed, sp.Scale, c.rr.Err)
			}
			return true
		}
		res.Records[i], res.Done[i] = c.rec, true
		if ex.Errs != nil {
			ex.Errs[k] = c.rr.Err
		}
		if ex.Results != nil {
			ex.Results[k] = c.rr
		}
		return false
	}
	n, peak := runOrdered(ctx, len(pending), workers, run, fold)
	// Undispatched specs carry the context error in Errs (and Results)
	// but get no record: a report lists only the runs that ran, as a
	// campaign's does.
	for k := n; k < len(pending); k++ {
		if ex.Errs != nil {
			ex.Errs[k] = ctx.Err()
		}
		if ex.Results != nil {
			ex.Results[k] = RunResult{Spec: res.Specs[pending[k]], Err: ctx.Err()}
		}
	}
	res.aggregate()
	ex.PeakPending = peak
	switch {
	case firstErr != nil:
		return ex, firstErr
	case j != nil:
		return ex, ctx.Err()
	}
	return ex, nil
}

// openCampaign opens Execute's campaign directory: create-or-continue
// (Resume=false, Matrix authoritative and checked against any existing
// manifest) or resume (Resume=true, manifest authoritative).
func openCampaign(opts RunSpecOpts) (*Campaign, error) {
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
	return OpenCampaign(opts.CampaignDir, man)
}

// cell is one run's outcome as the worker pool hands it to the fold.
type cell struct {
	rr  RunResult
	rec RunRecord
}

// newCell pairs a run's result with its record at spec index idx.
func newCell(rr RunResult, idx int, hash string) cell {
	sp := rr.Spec
	rec := RunRecord{Index: idx, Name: sp.Name, Seed: sp.Seed, Scale: sp.Scale, Summary: rr.Summary, TraceHash: hash}
	if rr.Err != nil {
		rec.Error = rr.Err.Error()
	}
	return cell{rr, rec}
}

// runCell runs spec (index idx) from t=0. With a journal j (campaign
// mode) the trace is hashed and a successful run's record journaled
// before it returns; a journal error becomes the run's error. An
// injected crash (faultinject.Crashed panic) becomes an error that
// aborts the campaign with the on-disk state exactly as-at-crash — the
// in-process equivalent of a SIGKILL at that instant, which is what
// the kill-and-resume tests exercise. Real panics propagate.
func runCell(spec Spec, idx int, metrics []string, j *journal, inj *faultinject.Injector) (c cell) {
	defer func() {
		if r := recover(); r != nil {
			if crash, ok := r.(faultinject.Crashed); ok {
				c.rr.Err = crash
				return
			}
			panic(r)
		}
	}()
	rr, hash := runOne(spec, metrics, j != nil)
	c = newCell(rr, idx, hash)
	if j == nil || rr.Err != nil {
		return c
	}
	if err := j.append(c.rec, inj); err != nil {
		c.rr.Err = err
		return c
	}
	inj.AfterRun(idx)
	return c
}
