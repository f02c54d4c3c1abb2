package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
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
//	report.json     — the final report, written only by a dispatch
//	                  coordinator (whose directory is a campaign
//	                  directory; see Campaign.WriteReport)
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
// resume's own journal, a dispatch coordinator's uploads — goes
// through CampaignResult.fold, which rejects two records for one run
// that disagree.

const (
	manifestName = "campaign.json"
	journalName  = "journal.jsonl"
	reportName   = "report.json"
)

// ErrConflict marks two records for one run that disagree. Runs are
// deterministic, so this is corruption or version skew between
// processes — never a retryable race.
var ErrConflict = errors.New("experiment: conflicting records")

// Manifest is the persisted campaign identity (campaign.json).
type Manifest struct {
	Version int        `json:"version"`
	Matrix  Matrix     `json:"matrix"`
	Metrics []string   `json:"metrics,omitempty"`
	Range   *SpecRange `json:"range,omitempty"`
}

// RunRecord is one run as a report lists it: its global spec index,
// identity and summary. A campaign run also carries its trace hash;
// a failed collect or reduce run carries its error instead of a
// summary. A journal only ever holds completed, hashed records.
type RunRecord struct {
	Index     int     `json:"index"`
	Name      string  `json:"name"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	Summary   Summary `json:"summary"`
	TraceHash string  `json:"trace_hash,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// CampaignResult is the per-run state of a finished (or interrupted)
// Execute in any mode, or of a campaign folded from journals.
type CampaignResult struct {
	Specs      []Spec
	Records    []RunRecord // spec order; zero-valued where incomplete
	Done       []bool      // which Records are filled
	Aggregates []Aggregated
	// FromJournal counts runs skipped because the journal already had
	// them.
	FromJournal int
}

// Report is the serializable matrix report: what `wlansweep -json`
// and `ietfrepro -json` write, and what the CI kill-and-resume job
// diffs. It lists every placed record in spec order.
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

// ReportJSON returns the report's bytes exactly as `wlansweep -json`
// writes them: indented JSON plus a trailing newline. A dispatch
// coordinator's report.json and its GET /api/v1/report serve the same
// bytes.
func (r *CampaignResult) ReportJSON(man Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(r.Report(man), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// CampaignReport is the one JSON report shape of a matrix run.
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
// and without truncating a torn tail — a read-only view for tools
// that inspect a campaign another process ran (perfbench checks a
// finished campaign's records this way). A missing journal yields no
// records and no error.
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

// Campaign is an open campaign directory: its manifest, the records
// folded from its journal, and the journal open for appending. It is
// the one way into a campaign directory — Runner.Execute's campaign
// mode and the dispatch coordinator both open theirs here, so a
// coordinator's directory resumes as a plain campaign and vice versa.
type Campaign struct {
	// Manifest is the directory's campaign identity.
	Manifest Manifest
	// Result holds the folded records in spec order; Aggregates is
	// unset until the campaign finishes.
	Result *CampaignResult

	dir string
	j   *journal
}

// OpenCampaign opens the campaign in dir. A nil man resumes: dir's
// manifest is authoritative. Otherwise man (Version is set here) is
// written to a fresh dir, or must equal the manifest already there.
// The journal is then read — a torn tail truncated — and folded.
func OpenCampaign(dir string, man *Manifest) (*Campaign, error) {
	var (
		m   Manifest
		err error
	)
	if man == nil {
		if m, err = ReadManifest(dir); err != nil {
			return nil, fmt.Errorf("experiment: resume %s: %w", dir, err)
		}
	} else {
		m = *man
		m.Version = 1
	}
	specs, err := m.Matrix.Expand() // before touching dir: a bad matrix leaves no campaign behind
	if err != nil {
		return nil, err
	}
	if man != nil {
		if err := writeManifest(dir, m); err != nil {
			return nil, err
		}
	}
	j, journaled, err := openJournal(filepath.Join(dir, journalName))
	if err != nil {
		return nil, err
	}
	res, err := foldRecords(specs, journaled)
	if err != nil {
		j.close()
		return nil, err
	}
	return &Campaign{Manifest: m, Result: res, dir: dir, j: j}, nil
}

// writeManifest writes man into dir — or, when dir already holds a
// manifest, checks that it describes the same campaign.
func writeManifest(dir string, man Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, manifestName)
	prev, err := readManifest(path)
	if os.IsNotExist(err) {
		return WriteJSONAtomic(path, man)
	}
	if err != nil {
		return err
	}
	a, _ := json.Marshal(man)
	b, _ := json.Marshal(prev)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("experiment: %s already holds a different campaign (use -resume, or a fresh directory)", dir)
	}
	return nil
}

// Add folds recs through the resume fold — each must match the
// matrix, lie in rng (nil means anywhere), and agree with every record
// already folded or earlier in recs — then journals the new ones. No
// record is folded or written unless all pass. It returns how many
// records were new.
func (c *Campaign) Add(recs []RunRecord, rng *SpecRange) (int, error) {
	fresh, err := c.Result.fold(recs, rng)
	if err != nil {
		return 0, err
	}
	for i, rec := range fresh {
		if err := c.j.append(rec, nil); err != nil {
			c.Result.unplace(fresh[i:]) // memory never runs ahead of the journal
			return i, err
		}
	}
	return len(fresh), nil
}

// WriteReport aggregates the folded records, writes the report to
// dir/report.json atomically, and returns its bytes (ReportJSON).
func (c *Campaign) WriteReport() ([]byte, error) {
	c.Result.aggregate()
	data, err := c.Result.ReportJSON(c.Manifest)
	if err != nil {
		return nil, err
	}
	if err := AtomicWriteFile(filepath.Join(c.dir, reportName), data); err != nil {
		return nil, err
	}
	return data, nil
}

// Close closes the journal.
func (c *Campaign) Close() error { return c.j.close() }

// ReadManifest loads a campaign directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	return readManifest(filepath.Join(dir, manifestName))
}

// validateRecord checks a journaled (or uploaded) record against the
// expanded matrix: the index must exist, the identity fields must
// match what the matrix expands to at that index, and the record must
// be a completed campaign run's: hashed, with no error.
func validateRecord(specs []Spec, rec RunRecord) error {
	if rec.Index < 0 || rec.Index >= len(specs) {
		return fmt.Errorf("experiment: record for run %d, matrix has %d runs", rec.Index, len(specs))
	}
	if rec.TraceHash == "" || rec.Error != "" {
		return fmt.Errorf("experiment: record for run %d is not a completed campaign run (trace hash %q, error %q)", rec.Index, rec.TraceHash, rec.Error)
	}
	sp := specs[rec.Index]
	if rec.Name != sp.Name || rec.Seed != sp.Seed || rec.Scale != sp.Scale {
		return fmt.Errorf("experiment: record for run %d is %s/seed=%d/scale=%g, matrix expands to %s/seed=%d/scale=%g",
			rec.Index, rec.Name, rec.Seed, rec.Scale, sp.Name, sp.Seed, sp.Scale)
	}
	return nil
}

// FoldRecords assembles a CampaignResult from journal records gathered
// out of band, such as the journals of a partitioned campaign's
// ranges. Records may arrive in any order and from overlapping
// ranges: duplicates for a spec index are fine when bit-identical
// (runs are deterministic, so a rerun of the same spec journals the
// same record) and a hard error when they differ, because that means
// two workers disagreed on a deterministic computation. Done records
// fold in global spec order, so the aggregates — and the report built
// from the result — are byte-identical to a single-process campaign
// over the same matrix.
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

// foldRecords places recs in a fresh result over specs — the fold a
// campaign's own journal goes through on open, and FoldRecords' too,
// so conflicting records fail wherever they are read. The result's
// Aggregates are left unset.
func foldRecords(specs []Spec, recs []RunRecord) (*CampaignResult, error) {
	res := &CampaignResult{
		Specs:   specs,
		Records: make([]RunRecord, len(specs)),
		Done:    make([]bool, len(specs)),
	}
	fresh, err := res.fold(recs, nil)
	if err != nil {
		return nil, err
	}
	res.FromJournal = len(fresh)
	return res, nil
}

// fold validates each record against the expanded matrix and rng (nil
// means anywhere) and places it in its spec slot. A duplicate of a
// placed record — placed earlier or earlier in recs — is skipped when
// identical and an ErrConflict when not. All or nothing: on error no
// record of recs stays placed. It returns the newly placed records.
func (r *CampaignResult) fold(recs []RunRecord, rng *SpecRange) ([]RunRecord, error) {
	var fresh []RunRecord
	for _, rec := range recs {
		err := validateRecord(r.Specs, rec)
		switch {
		case err != nil:
		case !rng.Contains(rec.Index):
			err = fmt.Errorf("experiment: record for run %d is outside range [%d,%d)", rec.Index, rng.From, rng.To)
		case r.Done[rec.Index] && rec != r.Records[rec.Index]:
			err = fmt.Errorf("%w for run %d (%s seed=%d scale=%g): trace %s vs %s",
				ErrConflict, rec.Index, rec.Name, rec.Seed, rec.Scale, rec.TraceHash, r.Records[rec.Index].TraceHash)
		}
		if err != nil {
			r.unplace(fresh)
			return nil, err
		}
		if !r.Done[rec.Index] {
			r.Records[rec.Index], r.Done[rec.Index] = rec, true
			fresh = append(fresh, rec)
		}
	}
	return fresh, nil
}

// unplace empties the spec slots of recs.
func (r *CampaignResult) unplace(recs []RunRecord) {
	for _, rec := range recs {
		r.Records[rec.Index], r.Done[rec.Index] = RunRecord{}, false
	}
}

// aggregate folds the placed records in spec order — exactly the
// Aggregate path. A record carrying an error counts in its group's
// Errors.
func (r *CampaignResult) aggregate() {
	var agg aggregator
	for i := range r.Specs {
		if r.Done[i] {
			agg.add(r.Specs[i], r.Records[i].Summary, r.Records[i].Error != "")
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
