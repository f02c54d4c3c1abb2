package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"wlan80211/internal/experiment/faultinject"
)

// This file makes matrix sweeps crash-resumable. A campaign lives in
// a directory:
//
//	campaign.json   — the matrix + options (atomic write; resume
//	                  re-expands specs from it, never from flags)
//	journal.jsonl   — one line per completed run, appended with
//	                  O_APPEND in a single write; each line carries a
//	                  CRC32 of its record, so a torn tail from a crash
//	                  mid-append is detected and truncated on resume
//
// Determinism contract: a campaign that crashes at ANY instant and is
// resumed produces aggregates and per-run trace hashes bit-identical
// to one that never crashed. The run is the unit of durability.
// Completed runs come back from the journal (JSON round-trips int64
// and float64 values exactly, and folding happens in spec order
// either way). A run the crash interrupted left no record, so resume
// reruns it from t=0; runs are deterministic, so the rerun journals
// exactly the record the lost run would have. The journaled
// trace_hash is the divergence check: every fold of records — a
// resume's own journal, a dispatch coordinator's shard uploads —
// rejects two records for one run that disagree.

const (
	manifestName = "campaign.json"
	journalName  = "journal.jsonl"
)

// Manifest is the persisted campaign identity (campaign.json).
type Manifest struct {
	Version int        `json:"version"`
	Matrix  Matrix     `json:"matrix"`
	Metrics []string   `json:"metrics,omitempty"`
	Range   *SpecRange `json:"range,omitempty"`
}

// RunRecord is one completed run as journaled.
type RunRecord struct {
	Index     int     `json:"index"`
	Name      string  `json:"name"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	Summary   Summary `json:"summary"`
	TraceHash string  `json:"trace_hash"`
}

// CampaignResult is a finished (or interrupted) campaign.
type CampaignResult struct {
	Specs      []Spec
	Records    []RunRecord // spec order; zero-valued where incomplete
	Done       []bool      // which Records are filled
	Aggregates []Aggregated
	// FromJournal counts runs skipped because the journal already had
	// them.
	FromJournal int
}

// Report is the serializable campaign report (what wlansweep -json
// writes and the CI kill-and-resume job diffs).
func (r *CampaignResult) Report(man Manifest) CampaignReport {
	rep := CampaignReport{
		Scenarios:  man.Matrix.Scenarios,
		Seeds:      man.Matrix.Seeds,
		Scales:     man.Matrix.Scales,
		Aggregates: r.Aggregates,
	}
	for i, rec := range r.Records {
		if r.Done[i] {
			rep.Runs = append(rep.Runs, rec)
		}
	}
	return rep
}

// CampaignReport is the JSON report shape.
type CampaignReport struct {
	Scenarios  []string     `json:"scenarios"`
	Seeds      []int64      `json:"seeds,omitempty"`
	Scales     []float64    `json:"scales,omitempty"`
	Runs       []RunRecord  `json:"runs"`
	Aggregates []Aggregated `json:"aggregates"`
}

// WriteJSONAtomic marshals v and writes it to path via
// temp-file+rename, so an interrupt can never leave a torn report.
func WriteJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return AtomicWriteFile(path, append(data, '\n'))
}

// AtomicWriteFile writes data to path via a temp file in the same
// directory, fsync, and rename, so a crash at any instant leaves
// either the old file or the complete new one — never a torn write.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("experiment: atomic write %s: %w", path, err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("experiment: atomic write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("experiment: atomic write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("experiment: atomic write %s: %w", path, err)
	}
	name := tmp.Name()
	tmp = nil // committed past cleanup
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("experiment: atomic write %s: %w", path, err)
	}
	return nil
}

// journal is the append-only completion log.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

type journalLine struct {
	CRC string          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// scanJournal parses data's valid newline-terminated prefix,
// returning the records and the prefix's byte length. A damaged or
// unterminated tail line is tolerated — it is the torn-append
// artifact of a crash (even a fragment that happens to parse is not
// trustworthy without its terminator). Corruption anywhere but the
// tail is a hard error — that is damage, not a crash artifact.
func scanJournal(path string, data []byte) ([]RunRecord, int, error) {
	var recs []RunRecord
	valid := 0 // byte length of the valid, newline-terminated prefix
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break
		}
		rec, perr := parseJournalLine(data[valid : valid+nl])
		if perr != nil {
			if valid+nl+1 >= len(data) {
				break
			}
			return nil, 0, fmt.Errorf("experiment: journal %s: corrupt record at offset %d (not at tail): %w", path, valid, perr)
		}
		recs = append(recs, rec)
		valid += nl + 1
	}
	return recs, valid, nil
}

// ReadJournal reads a campaign journal without opening it for writing
// and without truncating a torn tail — the read-only view a dispatch
// worker uses to collect its shard's completed records for upload.
// A missing journal yields no records and no error.
func ReadJournal(path string) ([]RunRecord, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, _, err := scanJournal(path, data)
	return recs, err
}

// JournalPath returns the journal file inside a campaign directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// openJournal reads an existing journal (verifying every record's
// CRC), truncates a torn tail line if the last append was interrupted
// mid-write, and opens the file for appending.
func openJournal(path string) (*journal, []RunRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	recs, valid, err := scanJournal(path, data)
	if err != nil {
		return nil, nil, err
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("experiment: journal %s: truncating torn tail: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &journal{f: f}, recs, nil
}

func parseJournalLine(line []byte) (RunRecord, error) {
	var jl journalLine
	if err := json.Unmarshal(line, &jl); err != nil {
		return RunRecord{}, err
	}
	want := fmt.Sprintf("%08x", crc32.ChecksumIEEE(jl.Rec))
	if jl.CRC != want {
		return RunRecord{}, fmt.Errorf("crc %s != %s", jl.CRC, want)
	}
	var rec RunRecord
	if err := json.Unmarshal(jl.Rec, &rec); err != nil {
		return RunRecord{}, err
	}
	return rec, nil
}

// append journals one completed run: a single O_APPEND write of the
// whole line, then fsync, so a crash leaves either nothing or the
// complete record — and if the kernel tears the write (or the
// injector simulates it), the CRC catches the fragment on resume.
func (j *journal) append(rec RunRecord, inj *faultinject.Injector) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("{\"crc\":\"%08x\",\"rec\":%s}\n", crc32.ChecksumIEEE(payload), payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if inj.JournalWrite(rec.Index) {
		// Simulate the torn write: half the line reaches the disk,
		// then the process dies.
		if _, err := j.f.WriteString(line[:len(line)/2]); err != nil {
			return err
		}
		j.f.Sync()
		inj.CrashNow()
	}
	if _, err := j.f.WriteString(line); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) close() error { return j.f.Close() }

// createManifest writes the campaign manifest for opts' matrix into
// dir — or, when dir already holds one, checks that it describes the
// same campaign — and returns the expanded specs: Execute's
// ModeCampaign start path.
func createManifest(dir string, opts RunSpecOpts) ([]Spec, error) {
	specs, err := opts.Matrix.Expand() // before touching dir: a bad matrix leaves no campaign behind
	if err != nil {
		return nil, err
	}
	man := Manifest{Version: 1, Matrix: opts.Matrix, Metrics: opts.Metrics, Range: opts.Range}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	manPath := filepath.Join(dir, manifestName)
	if prev, err := readManifest(manPath); err == nil {
		a, _ := json.Marshal(man)
		b, _ := json.Marshal(prev)
		if !bytes.Equal(a, b) {
			return nil, fmt.Errorf("experiment: %s already holds a different campaign (use -resume, or a fresh directory)", dir)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else if err := WriteJSONAtomic(manPath, man); err != nil {
		return nil, err
	}
	return specs, nil
}

// resumeManifest loads dir's manifest, which is authoritative on
// resume: it replaces opts' metrics and range, and its matrix expands
// to the returned specs.
func resumeManifest(dir string, opts *RunSpecOpts) ([]Spec, error) {
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("experiment: resume %s: %w", dir, err)
	}
	specs, err := man.Matrix.Expand()
	if err != nil {
		return nil, err
	}
	opts.Metrics = man.Metrics
	opts.Range = man.Range
	return specs, nil
}

// ReadManifest loads a campaign directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	return readManifest(filepath.Join(dir, manifestName))
}

// validateRecord checks a journaled (or uploaded) record against the
// expanded matrix: the index must exist and the identity fields must
// match what the matrix expands to at that index.
func validateRecord(specs []Spec, rec RunRecord) error {
	if rec.Index < 0 || rec.Index >= len(specs) {
		return fmt.Errorf("experiment: journal records run %d, matrix has %d runs", rec.Index, len(specs))
	}
	sp := specs[rec.Index]
	if rec.Name != sp.Name || rec.Seed != sp.Seed || rec.Scale != sp.Scale {
		return fmt.Errorf("experiment: journal run %d is %s/seed=%d/scale=%g, matrix expands to %s/seed=%d/scale=%g",
			rec.Index, rec.Name, rec.Seed, rec.Scale, sp.Name, sp.Seed, sp.Scale)
	}
	return nil
}

// FoldRecords assembles a CampaignResult from journal records gathered
// out of band — the dispatch coordinator folding worker shard uploads,
// or a partition test folding per-range journals. Records may arrive
// in any order and from overlapping leases: duplicates for a spec
// index are fine when bit-identical (runs are deterministic, so a
// rerun of the same spec journals the same record) and a hard error
// when they differ, because that means two workers disagreed on a
// deterministic computation. Done records fold in global spec order,
// so the aggregates — and the report built from the result — are
// byte-identical to a single-process campaign over the same matrix.
func FoldRecords(man Manifest, recs []RunRecord) (*CampaignResult, error) {
	specs, err := man.Matrix.Expand()
	if err != nil {
		return nil, err
	}
	res, err := foldRecords(specs, recs)
	if err != nil {
		return nil, err
	}
	res.aggregate()
	return res, nil
}

// foldRecords validates recs against the expanded matrix and places
// each in its spec slot — FoldRecords' fold, which a campaign's own
// journal goes through too, so conflicting records fail wherever they
// are read. The result's Aggregates are left unset.
func foldRecords(specs []Spec, recs []RunRecord) (*CampaignResult, error) {
	res := &CampaignResult{
		Specs:   specs,
		Records: make([]RunRecord, len(specs)),
		Done:    make([]bool, len(specs)),
	}
	for _, rec := range recs {
		if err := validateRecord(specs, rec); err != nil {
			return nil, err
		}
		if res.Done[rec.Index] {
			if rec != res.Records[rec.Index] {
				return nil, fmt.Errorf("experiment: conflicting records for run %d (%s seed=%d scale=%g): trace %s vs %s",
					rec.Index, rec.Name, rec.Seed, rec.Scale, rec.TraceHash, res.Records[rec.Index].TraceHash)
			}
			continue
		}
		res.Records[rec.Index] = rec
		res.Done[rec.Index] = true
		res.FromJournal++
	}
	return res, nil
}

// aggregate folds the done records in spec order — exactly the
// uninterrupted Aggregate path.
func (r *CampaignResult) aggregate() {
	var agg aggregator
	for i := range r.Specs {
		if r.Done[i] {
			agg.add(r.Specs[i], r.Records[i].Summary, nil)
		}
	}
	r.Aggregates = agg.result()
}

func readManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("%s: %w", path, err)
	}
	if man.Version != 1 {
		return Manifest{}, fmt.Errorf("%s: unsupported campaign version %d", path, man.Version)
	}
	return man, nil
}

// runCampaign runs specs' pending runs as a journaled campaign in dir
// and returns the campaign state (partial on error) with the worker
// pool's retention high-water mark. Workers journal their own run;
// the fold places records in spec order and stops dispatch at the
// first failed run.
func runCampaign(ctx context.Context, dir string, specs []Spec, opts RunSpecOpts) (*CampaignResult, int, error) {
	j, journaled, err := openJournal(filepath.Join(dir, journalName))
	if err != nil {
		return nil, 0, err
	}
	defer j.close()

	res, err := foldRecords(specs, journaled)
	if err != nil {
		return nil, 0, err
	}

	// A range-restricted campaign (a dispatch worker's shard) only
	// runs its leased indices; the journal and fold stay global.
	var pending []int
	for i := range specs {
		if !res.Done[i] && opts.Range.Contains(i) {
			pending = append(pending, i)
		}
	}

	workers := opts.Workers
	if opts.Injector != nil {
		workers = 1 // reproducible crash instants
	}
	type cell struct {
		rec RunRecord
		err error
	}
	run := func(k int) cell {
		rec, err := runCampaignCell(specs[pending[k]], opts.Metrics, pending[k], opts.Injector, j)
		return cell{rec, err}
	}
	var firstErr error
	fold := func(k int, c cell) bool {
		i := pending[k]
		if c.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("run %d (%s seed=%d scale=%g): %w", i, specs[i].Name, specs[i].Seed, specs[i].Scale, c.err)
			}
			return true
		}
		res.Records[i] = c.rec
		res.Done[i] = true
		return false
	}
	_, peak := runOrdered(ctx, len(pending), workers, run, fold)
	if firstErr != nil {
		return res, peak, firstErr
	}

	res.aggregate()
	return res, peak, ctx.Err()
}

// runCampaignCell runs one pending cell from t=0 through the hashed
// pipeline and journals its record. An injected crash
// (faultinject.Crashed panic) becomes an error that aborts the
// campaign with the on-disk state exactly as-at-crash — the
// in-process equivalent of a SIGKILL at that instant, which is what
// the kill-and-resume tests exercise. Real panics propagate.
func runCampaignCell(spec Spec, metrics []string, idx int, inj *faultinject.Injector, j *journal) (rec RunRecord, err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(faultinject.Crashed); ok {
				err = c
				return
			}
			panic(r)
		}
	}()
	rr, hash := runOne(spec, metrics, true)
	if rr.Err != nil {
		return RunRecord{}, rr.Err
	}
	rec = RunRecord{Index: idx, Name: spec.Name, Seed: spec.Seed, Scale: spec.Scale, Summary: rr.Summary, TraceHash: hash}
	if err := j.append(rec, inj); err != nil {
		return RunRecord{}, err
	}
	inj.AfterRun(idx)
	return rec, nil
}
