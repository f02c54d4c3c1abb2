package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wlan80211/internal/dispatch"
	"wlan80211/internal/experiment"
)

func testMatrix() experiment.Matrix {
	return experiment.Matrix{
		Scenarios: []string{"day"},
		Seeds:     []int64{1, 2, 3},
		Scales:    []float64{0.1},
	}
}

// referenceReport runs the matrix as a single-process campaign and
// returns the report bytes exactly as `wlansweep -campaign -json`
// writes them.
func referenceReport(t *testing.T, m experiment.Matrix) []byte {
	t.Helper()
	rep, _ := referenceCampaign(t, m)
	return rep
}

// referenceCampaign is referenceReport plus the campaign's records, as
// read back from its journal and indexed by spec index.
func referenceCampaign(t *testing.T, m experiment.Matrix) ([]byte, []experiment.RunRecord) {
	t.Helper()
	dir := t.TempDir()
	ex, err := (&experiment.Runner{}).Execute(context.Background(), experiment.RunSpecOpts{
		Mode: experiment.ModeCampaign, Matrix: m, Workers: 2, CampaignDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Campaign
	man, err := experiment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(res.Report(man), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := experiment.ReadJournal(experiment.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]experiment.RunRecord, len(res.Specs))
	for _, rec := range journaled {
		recs[rec.Index] = rec
	}
	return append(data, '\n'), recs
}

// TestDistributedReportMatchesSingleProcess is the tentpole
// acceptance check in-process: two workers drain the shard queue over
// real HTTP and the coordinator's folded report is byte-identical to
// a single-process campaign over the same matrix.
func TestDistributedReportMatchesSingleProcess(t *testing.T) {
	m := testMatrix()
	want := referenceReport(t, m)

	co, err := dispatch.New(dispatch.Config{
		Dir: t.TempDir(), Matrix: m, ShardSize: 1,
		LeaseTTL: 10 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dispatch.NewServer(co))
	defer srv.Close()

	ctx := context.Background()
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &dispatch.Worker{
			Coordinator: srv.URL, Dir: t.TempDir(),
			Name: fmt.Sprintf("w%d", i), Workers: 1, Logf: t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w.Run(ctx)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	got, ok := co.Report()
	if !ok {
		t.Fatal("campaign not done after both workers exited")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed report differs from single-process reference:\n--- distributed ---\n%s\n--- reference ---\n%s", got, want)
	}

	// The HTTP report is the same bytes verbatim.
	resp, err := http.Get(srv.URL + "/api/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("GET /api/v1/report differs from the reference report")
	}
}

// fakeRecord fabricates an identity-valid record for lease-protocol
// tests that never run real simulations.
func fakeRecord(t *testing.T, m experiment.Matrix, i int, hash string) experiment.RunRecord {
	t.Helper()
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[i]
	return experiment.RunRecord{Index: i, Name: sp.Name, Seed: sp.Seed, Scale: sp.Scale, TraceHash: hash}
}

// TestLeaseExpiryReassignsShard drives the lease lifecycle with an
// injected clock: an expired lease's shard is reclaimable, its
// heartbeat 410s, and its late upload still counts while the shard is
// pending.
func TestLeaseExpiryReassignsShard(t *testing.T) {
	m := testMatrix()
	cur := time.Unix(1000, 0)
	co, err := dispatch.New(dispatch.Config{
		Dir: t.TempDir(), Matrix: m, ShardSize: 1,
		LeaseTTL: 10 * time.Second,
		Now:      func() time.Time { return cur },
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	first := co.Claim("w1")
	if first.Lease == nil {
		t.Fatalf("claim returned no lease: %+v", first)
	}
	if _, err := co.Heartbeat(first.Lease.ID); err != nil {
		t.Fatalf("heartbeat on live lease: %v", err)
	}

	// Lease out the remaining shards; the queue must then say wait.
	co.Claim("w1")
	co.Claim("w1")
	if r := co.Claim("w2"); !r.Wait || r.RetryMS <= 0 {
		t.Fatalf("all shards leased, want wait+retry, got %+v", r)
	}

	cur = cur.Add(11 * time.Second) // past every TTL
	second := co.Claim("w2")
	if second.Lease == nil || second.Lease.Shard != first.Lease.Shard {
		t.Fatalf("expired shard not reassigned first: %+v", second)
	}
	if _, err := co.Heartbeat(first.Lease.ID); err != dispatch.ErrLeaseGone {
		t.Fatalf("heartbeat on expired lease: want ErrLeaseGone, got %v", err)
	}

	// The dead worker's upload arrives anyway — accepted while the
	// shard is pending, and the duplicate from the new lease dedups.
	rec := fakeRecord(t, m, first.Lease.From, "aaaa")
	up, err := co.Upload(dispatch.UploadRequest{Lease: first.Lease.ID, Shard: first.Lease.Shard, Records: []experiment.RunRecord{rec}})
	if err != nil {
		t.Fatalf("upload from expired lease: %v", err)
	}
	if up.Accepted != 1 || !up.ShardDone {
		t.Fatalf("upload from expired lease: %+v", up)
	}
	dup, err := co.Upload(dispatch.UploadRequest{Lease: second.Lease.ID, Shard: second.Lease.Shard, Records: []experiment.RunRecord{rec}})
	if err != nil {
		t.Fatalf("duplicate upload: %v", err)
	}
	if dup.Accepted != 0 || !dup.ShardDone {
		t.Fatalf("duplicate upload should dedup to 0 accepted: %+v", dup)
	}
}

// TestUploadConflictRejected pins the determinism guardrail: two
// records for one spec index that disagree are corruption, not a
// race, and must fail the upload.
func TestUploadConflictRejected(t *testing.T) {
	m := testMatrix()
	co, err := dispatch.New(dispatch.Config{Dir: t.TempDir(), Matrix: m, ShardSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := fakeRecord(t, m, 0, "aaaa")
	b := fakeRecord(t, m, 0, "bbbb")
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{a}}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{b}}); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting record accepted: %v", err)
	}
	// Out-of-range and wrong-shard records are rejected too.
	out := fakeRecord(t, m, 2, "cccc")
	out.Index = 99
	out.Name = "day"
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{out}}); err == nil {
		t.Fatal("out-of-range record accepted")
	}
}

// TestCoordinatorResume restarts the coordinator mid-campaign and
// after completion: persisted shards reload, and a finished directory
// comes back already done with the identical report bytes.
func TestCoordinatorResume(t *testing.T) {
	m := testMatrix()
	dir := t.TempDir()
	cfg := dispatch.Config{Dir: dir, Matrix: m, ShardSize: 1, Logf: t.Logf}
	co, err := dispatch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{fakeRecord(t, m, 0, "aaaa")}}); err != nil {
		t.Fatal(err)
	}

	// Restart mid-campaign — resume without matrix flags.
	co2, err := dispatch.New(dispatch.Config{Dir: dir, ShardSize: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if st := co2.Status(); st.ShardsDone != 1 || st.RunsDone != 1 || st.Done {
		t.Fatalf("resumed status: %+v", st)
	}
	for i := 1; i < 3; i++ {
		if _, err := co2.Upload(dispatch.UploadRequest{Shard: i, Records: []experiment.RunRecord{fakeRecord(t, m, i, "hh")}}); err != nil {
			t.Fatal(err)
		}
	}
	rep, ok := co2.Report()
	if !ok {
		t.Fatal("campaign not done after all shards uploaded")
	}

	// Restart after completion: already finalized, same bytes.
	co3, err := dispatch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep3, ok := co3.Report()
	if !ok {
		t.Fatal("finished campaign not done after restart")
	}
	if !bytes.Equal(rep, rep3) {
		t.Fatal("report changed across coordinator restart")
	}
	select {
	case <-co3.Done():
	default:
		t.Fatal("Done channel not closed on already-finished campaign")
	}

	// A conflicting matrix cannot hijack the directory.
	bad := m
	bad.Seeds = []int64{9}
	if _, err := dispatch.New(dispatch.Config{Dir: dir, Matrix: bad}); err == nil {
		t.Fatal("different matrix accepted into existing coordinator dir")
	}
}

// TestAPIContract pins the /api/v1 route set and its error statuses.
func TestAPIContract(t *testing.T) {
	m := testMatrix()
	co, err := dispatch.New(dispatch.Config{Dir: t.TempDir(), Matrix: m, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dispatch.NewServer(co))
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("GET /healthz = %d", got)
	}
	if got := get("/api/v1/campaign"); got != http.StatusOK {
		t.Errorf("GET /api/v1/campaign = %d", got)
	}
	if got := get("/api/v1/status"); got != http.StatusOK {
		t.Errorf("GET /api/v1/status = %d", got)
	}
	if got := get("/api/v1/report"); got != http.StatusNotFound {
		t.Errorf("GET /api/v1/report before completion = %d, want 404", got)
	}
	if got, body := post("/api/v1/leases/claim", `{"worker":"t"}`); got != http.StatusOK || !strings.Contains(body, `"lease"`) {
		t.Errorf("POST claim = %d %s", got, body)
	}
	if got, _ := post("/api/v1/leases/claim", `{bad json`); got != http.StatusBadRequest {
		t.Errorf("POST claim with bad JSON = %d, want 400", got)
	}
	if got, _ := post("/api/v1/leases/nope/heartbeat", `{}`); got != http.StatusGone {
		t.Errorf("POST heartbeat on unknown lease = %d, want 410", got)
	}
	if got, _ := post("/api/v1/leases/x/journal", `{"shard":99,"records":[]}`); got != http.StatusBadRequest {
		t.Errorf("POST journal with bad shard = %d, want 400", got)
	}
	// Conflicting uploads surface as 409.
	rec := fakeRecord(t, m, 0, "aaaa")
	recJSON, _ := json.Marshal(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{rec}})
	if got, _ := post("/api/v1/leases/x/journal", string(recJSON)); got != http.StatusOK {
		t.Errorf("POST journal = %d, want 200", got)
	}
	rec.TraceHash = "bbbb"
	recJSON, _ = json.Marshal(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{rec}})
	if got, _ := post("/api/v1/leases/x/journal", string(recJSON)); got != http.StatusConflict {
		t.Errorf("POST conflicting journal = %d, want 409", got)
	}
	// Method mismatches 405 under Go 1.22+ pattern routing.
	if got, _ := post("/api/v1/campaign", `{}`); got != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/campaign = %d, want 405", got)
	}
}

// TestUploadConflictWithinOneRequest: two different records for one
// run in a single upload are a conflict like any other — ErrConflict
// (409 over HTTP), and the journal gains no line.
func TestUploadConflictWithinOneRequest(t *testing.T) {
	m := testMatrix()
	dir := t.TempDir()
	co, err := dispatch.New(dispatch.Config{Dir: dir, Matrix: m, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	journal := func() string {
		t.Helper()
		data, err := os.ReadFile(experiment.JournalPath(dir))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return string(data)
	}
	a := fakeRecord(t, m, 0, "aaaa")
	b := fakeRecord(t, m, 0, "bbbb")
	before := journal()
	up, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{a, b}})
	if !errors.Is(err, dispatch.ErrConflict) {
		t.Fatalf("two records for run 0 in one upload: got %+v, %v; want ErrConflict", up, err)
	}
	if after := journal(); after != before {
		t.Fatalf("rejected upload wrote to the journal:\n%s", after)
	}

	srv := httptest.NewServer(dispatch.NewServer(co))
	defer srv.Close()
	body, _ := json.Marshal(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{a, b}})
	resp, err := http.Post(srv.URL+"/api/v1/leases/x/journal", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST journal with an in-request conflict = %d, want 409", resp.StatusCode)
	}
	if after := journal(); after != before {
		t.Fatalf("rejected HTTP upload wrote to the journal:\n%s", after)
	}
	if st := co.Status(); st.RunsDone != 0 {
		t.Fatalf("rejected uploads folded runs: %+v", st)
	}
}

// TestCoordinatorResumePartialShard: every accepted record is durable,
// not only whole shards — one of a three-run shard's records survives
// a coordinator restart.
func TestCoordinatorResumePartialShard(t *testing.T) {
	m := testMatrix()
	dir := t.TempDir()
	co, err := dispatch.New(dispatch.Config{Dir: dir, Matrix: m, ShardSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{fakeRecord(t, m, 1, "aaaa")}}); err != nil {
		t.Fatal(err)
	}
	co2, err := dispatch.New(dispatch.Config{Dir: dir, ShardSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st := co2.Status(); st.RunsDone != 1 || st.ShardsDone != 0 || st.Done {
		t.Fatalf("restarted status: %+v, want 1 run done in an unfinished shard", st)
	}
}

// TestCoordinatorRestartNewShardSize: the shard size only shapes
// leases, so a coordinator restarted with a different one finishes the
// campaign to the single-process report, and its directory holds
// exactly a campaign directory's files.
func TestCoordinatorRestartNewShardSize(t *testing.T) {
	m := testMatrix()
	want, recs := referenceCampaign(t, m)
	dir := t.TempDir()
	co, err := dispatch.New(dispatch.Config{Dir: dir, Matrix: m, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: recs[:1]}); err != nil {
		t.Fatal(err)
	}

	co2, err := dispatch.New(dispatch.Config{Dir: dir, ShardSize: 2, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart with a different shard size: %v", err)
	}
	if st := co2.Status(); st.Shards != 2 || st.RunsDone != 1 {
		t.Fatalf("restarted status: %+v", st)
	}
	if up, err := co2.Upload(dispatch.UploadRequest{Shard: 0, Records: recs[:2]}); err != nil || up.Accepted != 1 || !up.ShardDone {
		t.Fatalf("upload shard [0,2): %+v, %v", up, err)
	}
	if up, err := co2.Upload(dispatch.UploadRequest{Shard: 1, Records: recs[2:]}); err != nil || !up.CampaignDone {
		t.Fatalf("upload shard [2,3): %+v, %v", up, err)
	}
	got, ok := co2.Report()
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("report after a shard-size change differs from the single-process reference:\n%s\nvs\n%s", got, want)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil || !bytes.Equal(onDisk, want) {
		t.Fatalf("report.json differs from the reference (%v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "campaign.json journal.jsonl report.json" {
		t.Fatalf("coordinator directory holds %q, want a campaign directory", got)
	}
}

// TestCoordinatorDirResumesAsCampaign: there is one resume mechanism.
// A coordinator directory holding some uploaded runs is finished by a
// plain single-process campaign resume, to the reference report
// bytes, and a coordinator reopened on it comes back done.
func TestCoordinatorDirResumesAsCampaign(t *testing.T) {
	m := testMatrix()
	want, recs := referenceCampaign(t, m)
	dir := t.TempDir()
	co, err := dispatch.New(dispatch.Config{Dir: dir, Matrix: m, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if _, err := co.Upload(dispatch.UploadRequest{Shard: i, Records: recs[i : i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	ex, err := (&experiment.Runner{}).Execute(context.Background(), experiment.RunSpecOpts{
		Mode: experiment.ModeCampaign, CampaignDir: dir, Resume: true, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Campaign.FromJournal != 2 {
		t.Fatalf("FromJournal = %d, want the 2 uploaded runs", ex.Campaign.FromJournal)
	}
	man, err := experiment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex.Campaign.ReportJSON(man)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("campaign resume of a coordinator directory differs from the reference:\n%s\nvs\n%s", got, want)
	}

	co2, err := dispatch.New(dispatch.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if rep, ok := co2.Report(); !ok || !bytes.Equal(rep, want) {
		t.Fatal("coordinator reopened on the resumed directory is not done with the reference report")
	}
}

// TestCoordinatorOpensDirWithShardFiles: a coordinator directory from
// before the journal layout — campaign.json plus shards/shard-N.json —
// still opens. The shard files are neither read nor touched, so their
// runs are leased again.
func TestCoordinatorOpensDirWithShardFiles(t *testing.T) {
	m := testMatrix()
	dir := t.TempDir()
	if err := experiment.WriteJSONAtomic(filepath.Join(dir, "campaign.json"), experiment.Manifest{Version: 1, Matrix: m}); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "shards", "shard-0.json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	content := `{"shard":0,"from":0,"to":1,"records":[{"index":0,"name":"day","seed":1,"scale":0.1,"trace_hash":"aaaa"}]}`
	if err := os.WriteFile(old, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	co, err := dispatch.New(dispatch.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if st := co.Status(); st.RunsDone != 0 || st.Shards != 3 {
		t.Fatalf("status: %+v, want 3 pending shards", st)
	}
	if r := co.Claim("w"); r.Lease == nil || r.Lease.Shard != 0 {
		t.Fatalf("shard 0 not leased again: %+v", r)
	}
	if data, err := os.ReadFile(old); err != nil || string(data) != content {
		t.Fatalf("shard file touched: %q, %v", data, err)
	}
}
