package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wlan80211/internal/experiment"
)

// The coordinator's state directory mirrors a campaign directory:
//
//	campaign.json          — the global manifest (same shape and name
//	                         as a worker-side campaign, so tooling
//	                         that reads campaigns reads this too)
//	shards/shard-N.json    — each completed shard's records (atomic
//	                         write on completion; restart reloads)
//	report.json            — the final folded report, byte-identical
//	                         to a single-process `wlansweep -campaign
//	                         -json` over the same matrix
//
// Only completed shards persist. A shard lost mid-flight costs
// nothing durable: the worker's own journal (its campaign dir)
// already holds the finished runs, and a reassigned worker recomputes
// the rest deterministically.

const (
	manifestName = "campaign.json"
	shardsDir    = "shards"
	reportName   = "report.json"

	// DefaultShardSize is specs per shard: one run per lease keeps
	// reassignment losses minimal and load balancing automatic.
	DefaultShardSize = 1
	// DefaultLeaseTTL is how long a claimed shard survives without a
	// heartbeat before it is reassigned.
	DefaultLeaseTTL = 15 * time.Second
)

// Config configures a coordinator. Matrix may be empty to resume a
// directory that already holds a campaign.json.
type Config struct {
	// Dir is the coordinator state directory (created if needed).
	Dir string
	// Matrix is the campaign to shard. Empty Scenarios means resume:
	// the matrix and metrics come from the directory's manifest.
	Matrix experiment.Matrix
	// Metrics selects analysis stages by name (empty = all).
	Metrics []string
	// ShardSize is specs per shard; <=0 means DefaultShardSize. Must
	// stay the same across restarts of one campaign (the persisted
	// shard files pin the layout).
	ShardSize int
	// LeaseTTL is the heartbeat deadline; <=0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Now is the clock (tests inject a fake one); nil means time.Now.
	Now func() time.Time
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Coordinator owns one distributed campaign: the shard table, the
// lease table, and the folded record set.
type Coordinator struct {
	cfg   Config
	man   experiment.Manifest
	specs []experiment.Spec
	now   func() time.Time
	logf  func(string, ...any)

	mu      sync.Mutex
	shards  []*shard
	leases  map[string]*lease
	seq     int // lease id counter (deterministic, unlike rand)
	records map[int]experiment.RunRecord
	report  []byte // final report JSON; non-nil means done
	done    chan struct{}
}

type shard struct {
	r       experiment.SpecRange
	done    bool
	leaseID string // active lease ("" = unleased)
}

type lease struct {
	id      string
	shard   int
	worker  string
	expires time.Time
}

// New opens (or resumes) a coordinator in cfg.Dir. Completed shards
// found on disk fold immediately; a directory whose shards are all
// done comes back already finalized.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		cfg:     cfg,
		now:     cfg.Now,
		logf:    cfg.Logf,
		leases:  make(map[string]*lease),
		records: make(map[int]experiment.RunRecord),
		done:    make(chan struct{}),
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, shardsDir), 0o755); err != nil {
		return nil, err
	}
	if err := c.loadManifest(); err != nil {
		return nil, err
	}
	var err error
	if c.specs, err = c.man.Matrix.Expand(); err != nil {
		return nil, err
	}
	for _, r := range partition(len(c.specs), cfg.ShardSize) {
		c.shards = append(c.shards, &shard{r: r})
	}
	if err := c.loadShards(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allShardsDone() {
		if err := c.finalize(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// loadManifest creates campaign.json from the config, verifies an
// existing one matches it, or — when the config carries no matrix —
// adopts the existing one (resume).
func (c *Coordinator) loadManifest() error {
	path := filepath.Join(c.cfg.Dir, manifestName)
	prev, err := experiment.ReadManifest(c.cfg.Dir)
	if len(c.cfg.Matrix.Scenarios) == 0 {
		if err != nil {
			return fmt.Errorf("dispatch: resume %s: %w", c.cfg.Dir, err)
		}
		c.man = prev
		return nil
	}
	c.man = experiment.Manifest{
		Version: 1,
		Matrix:  c.cfg.Matrix,
		Metrics: c.cfg.Metrics,
	}
	if err == nil {
		a, _ := json.Marshal(c.man)
		b, _ := json.Marshal(prev)
		if !bytes.Equal(a, b) {
			return fmt.Errorf("dispatch: %s already holds a different campaign (resume without matrix flags, or use a fresh directory)", c.cfg.Dir)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	return experiment.WriteJSONAtomic(path, c.man)
}

// shardFile is the persisted form of one completed shard.
type shardFile struct {
	Shard   int                    `json:"shard"`
	From    int                    `json:"from"`
	To      int                    `json:"to"`
	Records []experiment.RunRecord `json:"records"`
}

// loadShards folds completed shard files back in. The on-disk layout
// must match the computed partition — a changed -shard-size would
// silently misalign ranges otherwise.
func (c *Coordinator) loadShards() error {
	for i, sh := range c.shards {
		path := c.shardPath(i)
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		var sf shardFile
		if err := json.Unmarshal(data, &sf); err != nil {
			return fmt.Errorf("dispatch: %s: %w", path, err)
		}
		if sf.From != sh.r.From || sf.To != sh.r.To {
			return fmt.Errorf("dispatch: %s covers [%d,%d) but the shard layout says [%d,%d) — restart with the original -shard-size", path, sf.From, sf.To, sh.r.From, sh.r.To)
		}
		for _, rec := range sf.Records {
			if err := c.checkRecord(sh, rec); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			c.records[rec.Index] = rec
		}
		if !c.shardCovered(sh) {
			return fmt.Errorf("dispatch: %s is incomplete (%d of %d runs) — completed shards persist whole", path, len(sf.Records), sh.r.To-sh.r.From)
		}
		sh.done = true
	}
	return nil
}

func (c *Coordinator) shardPath(i int) string {
	return filepath.Join(c.cfg.Dir, shardsDir, fmt.Sprintf("shard-%d.json", i))
}

// partition splits n specs into contiguous shards of at most size.
func partition(n, size int) []experiment.SpecRange {
	var out []experiment.SpecRange
	for from := 0; from < n; from += size {
		out = append(out, experiment.SpecRange{From: from, To: min(from+size, n)})
	}
	return out
}

// Manifest returns the campaign identity workers run against.
func (c *Coordinator) Manifest() experiment.Manifest { return c.man }

// Done is closed once every shard has folded and the report exists.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Report returns the final report JSON once the campaign completed.
func (c *Coordinator) Report() ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report, c.report != nil
}

// Status reports progress.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(c.now())
	st := Status{
		Specs:        len(c.specs),
		Shards:       len(c.shards),
		RunsDone:     len(c.records),
		ActiveLeases: len(c.leases),
		Done:         c.report != nil,
	}
	for _, sh := range c.shards {
		if sh.done {
			st.ShardsDone++
		}
	}
	return st
}

// Claim hands out the first pending unleased shard, or says wait
// (everything pending is leased) or done. Expired leases are reaped
// here — lazily, on traffic — so a SIGKILLed worker's shard is
// reassigned at the next claim after its TTL runs out.
func (c *Coordinator) Claim(worker string) ClaimResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.reap(now)
	if c.report != nil {
		return ClaimResponse{Done: true}
	}
	for i, sh := range c.shards {
		if sh.done || sh.leaseID != "" {
			continue
		}
		c.seq++
		l := &lease{
			id:      fmt.Sprintf("lease-%d", c.seq),
			shard:   i,
			worker:  worker,
			expires: now.Add(c.cfg.LeaseTTL),
		}
		c.leases[l.id] = l
		sh.leaseID = l.id
		c.logf("dispatch: %s: shard %d [%d,%d) leased to %q (ttl %s)",
			l.id, i, sh.r.From, sh.r.To, worker, c.cfg.LeaseTTL)
		return ClaimResponse{Lease: &Lease{
			ID: l.id, Shard: i, From: sh.r.From, To: sh.r.To,
			TTLMS: c.cfg.LeaseTTL.Milliseconds(),
		}}
	}
	return ClaimResponse{Wait: true, RetryMS: max(c.cfg.LeaseTTL.Milliseconds()/4, 100)}
}

// Heartbeat extends a live lease; ErrLeaseGone means it expired (or
// never existed) and the worker should claim again.
func (c *Coordinator) Heartbeat(id string) (time.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.reap(now)
	l, ok := c.leases[id]
	if !ok {
		return time.Time{}, ErrLeaseGone
	}
	l.expires = now.Add(c.cfg.LeaseTTL)
	return l.expires, nil
}

// reap drops expired leases so their shards become claimable. Caller
// holds mu.
func (c *Coordinator) reap(now time.Time) {
	for id, l := range c.leases {
		if now.After(l.expires) {
			c.logf("dispatch: %s expired (shard %d, worker %q); shard reassignable", id, l.shard, l.worker)
			if c.shards[l.shard].leaseID == id {
				c.shards[l.shard].leaseID = ""
			}
			delete(c.leases, id)
		}
	}
}

// Upload folds a shard's completed records. All-or-nothing: every
// record is validated against the matrix (and against already-folded
// duplicates) before any is kept. Valid uploads are accepted even
// from expired or superseded leases while the shard is pending —
// deterministic work is never wasted.
func (c *Coordinator) Upload(req UploadRequest) (UploadResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Shard < 0 || req.Shard >= len(c.shards) {
		return UploadResponse{}, fmt.Errorf("dispatch: no shard %d (have %d)", req.Shard, len(c.shards))
	}
	sh := c.shards[req.Shard]
	for _, rec := range req.Records {
		if err := c.checkRecord(sh, rec); err != nil {
			return UploadResponse{}, err
		}
	}
	var resp UploadResponse
	for _, rec := range req.Records {
		if _, ok := c.records[rec.Index]; ok {
			continue
		}
		c.records[rec.Index] = rec
		resp.Accepted++
	}
	if !sh.done && c.shardCovered(sh) {
		if err := c.completeShard(req.Shard); err != nil {
			return UploadResponse{}, err
		}
	}
	resp.ShardDone = sh.done
	resp.CampaignDone = c.report != nil
	return resp, nil
}

// checkRecord validates one record against the shard range, the
// expanded matrix, and any already-folded duplicate. Caller holds mu.
func (c *Coordinator) checkRecord(sh *shard, rec experiment.RunRecord) error {
	if rec.Index < sh.r.From || rec.Index >= sh.r.To {
		return fmt.Errorf("dispatch: record for run %d is outside shard range [%d,%d)", rec.Index, sh.r.From, sh.r.To)
	}
	sp := c.specs[rec.Index]
	if rec.Name != sp.Name || rec.Seed != sp.Seed || rec.Scale != sp.Scale {
		return fmt.Errorf("dispatch: record %d is %s/seed=%d/scale=%g, matrix expands to %s/seed=%d/scale=%g",
			rec.Index, rec.Name, rec.Seed, rec.Scale, sp.Name, sp.Seed, sp.Scale)
	}
	if prev, ok := c.records[rec.Index]; ok && prev != rec {
		return fmt.Errorf("%w: run %d trace %s vs %s", ErrConflict, rec.Index, rec.TraceHash, prev.TraceHash)
	}
	return nil
}

func (c *Coordinator) shardCovered(sh *shard) bool {
	for i := sh.r.From; i < sh.r.To; i++ {
		if _, ok := c.records[i]; !ok {
			return false
		}
	}
	return true
}

func (c *Coordinator) allShardsDone() bool {
	for _, sh := range c.shards {
		if !sh.done {
			return false
		}
	}
	return true
}

// completeShard persists a fully-covered shard, retires its lease,
// and finalizes the campaign when it was the last one. Caller holds
// mu.
func (c *Coordinator) completeShard(idx int) error {
	sh := c.shards[idx]
	sf := shardFile{Shard: idx, From: sh.r.From, To: sh.r.To}
	for i := sh.r.From; i < sh.r.To; i++ {
		sf.Records = append(sf.Records, c.records[i])
	}
	if err := experiment.WriteJSONAtomic(c.shardPath(idx), sf); err != nil {
		return err
	}
	sh.done = true
	if sh.leaseID != "" {
		delete(c.leases, sh.leaseID)
		sh.leaseID = ""
	}
	done := 0
	for _, s := range c.shards {
		if s.done {
			done++
		}
	}
	c.logf("dispatch: shard %d [%d,%d) complete (%d/%d shards)", idx, sh.r.From, sh.r.To, done, len(c.shards))
	if c.allShardsDone() {
		return c.finalize()
	}
	return nil
}

// finalize folds every record in global spec order through the exact
// single-process path (FoldRecords → Report → MarshalIndent), caches
// the bytes, and writes report.json atomically. Caller holds mu.
func (c *Coordinator) finalize() error {
	recs := make([]experiment.RunRecord, 0, len(c.records))
	for i := range c.specs {
		recs = append(recs, c.records[i])
	}
	res, err := experiment.FoldRecords(c.man, recs)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res.Report(c.man), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := experiment.AtomicWriteFile(filepath.Join(c.cfg.Dir, reportName), data); err != nil {
		return err
	}
	c.report = data
	close(c.done)
	c.logf("dispatch: campaign complete: %d runs folded, report at %s", len(recs), filepath.Join(c.cfg.Dir, reportName))
	return nil
}
