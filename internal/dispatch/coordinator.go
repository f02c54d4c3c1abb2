package dispatch

import (
	"fmt"
	"sync"
	"time"

	"wlan80211/internal/experiment"
)

// The coordinator's state directory is an ordinary campaign directory
// (experiment.OpenCampaign): campaign.json holds the matrix,
// journal.jsonl every accepted record, and report.json the final
// report, byte-identical to a single-process `wlansweep -campaign
// -json` over the same matrix. Every upload folds through the same
// fold a campaign resume uses and is journaled before it is
// acknowledged, so a restart is a campaign resume: whether a shard is
// done is derived from the journaled runs, never stored, and the
// directory also finishes single-process under `wlansweep -resume`.
// Shards, leases and the HTTP API live only in memory.

const (
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
	// ShardSize is specs per shard; <=0 means DefaultShardSize. It
	// only shapes leases, so it may change across restarts.
	ShardSize int
	// LeaseTTL is the heartbeat deadline; <=0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Now is the clock (tests inject a fake one); nil means time.Now.
	Now func() time.Time
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Coordinator owns one distributed campaign: the open campaign
// directory, the shard table, and the lease table.
type Coordinator struct {
	cfg  Config
	now  func() time.Time
	logf func(string, ...any)

	mu     sync.Mutex
	camp   *experiment.Campaign
	shards []*shard
	leases map[string]*lease
	seq    int    // lease id counter (deterministic, unlike rand)
	report []byte // final report JSON; non-nil means done
	done   chan struct{}
}

type shard struct {
	r       experiment.SpecRange
	leaseID string // active lease ("" = unleased)
}

type lease struct {
	id      string
	shard   int
	worker  string
	expires time.Time
}

// New opens (or resumes) a coordinator in cfg.Dir. Journaled records
// fold immediately; a directory whose runs are all journaled comes
// back already finalized.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		cfg:    cfg,
		now:    cfg.Now,
		logf:   cfg.Logf,
		leases: make(map[string]*lease),
		done:   make(chan struct{}),
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	var man *experiment.Manifest
	if len(cfg.Matrix.Scenarios) > 0 {
		man = &experiment.Manifest{Matrix: cfg.Matrix, Metrics: cfg.Metrics}
	}
	camp, err := experiment.OpenCampaign(cfg.Dir, man)
	if err != nil {
		return nil, err
	}
	c.camp = camp
	for _, r := range partition(len(camp.Result.Specs), cfg.ShardSize) {
		c.shards = append(c.shards, &shard{r: r})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runsDone() == len(camp.Result.Specs) {
		if err := c.finalize(); err != nil {
			camp.Close()
			return nil, err
		}
	}
	return c, nil
}

// partition splits n specs into contiguous shards of at most size.
func partition(n, size int) []experiment.SpecRange {
	var out []experiment.SpecRange
	for from := 0; from < n; from += size {
		out = append(out, experiment.SpecRange{From: from, To: min(from+size, n)})
	}
	return out
}

// Close closes the coordinator's journal. The coordinator must not
// be used afterwards.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.camp.Close()
}

// Manifest returns the campaign identity workers run against.
func (c *Coordinator) Manifest() experiment.Manifest { return c.camp.Manifest }

// Done is closed once every run has folded and the report exists.
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
		Specs:        len(c.camp.Result.Specs),
		Shards:       len(c.shards),
		RunsDone:     c.runsDone(),
		ActiveLeases: len(c.leases),
		Done:         c.report != nil,
	}
	for _, sh := range c.shards {
		if c.shardDone(sh) {
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
		if sh.leaseID != "" || c.shardDone(sh) {
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

// Upload folds a shard's records into the campaign journal through
// the campaign's own fold: every record must match the matrix, lie in
// the shard, and agree with every record already journaled or earlier
// in the upload, or nothing is kept. Valid uploads are accepted even
// from expired or superseded leases while the shard is pending —
// deterministic work is never wasted.
func (c *Coordinator) Upload(req UploadRequest) (UploadResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Shard < 0 || req.Shard >= len(c.shards) {
		return UploadResponse{}, fmt.Errorf("dispatch: no shard %d (have %d)", req.Shard, len(c.shards))
	}
	sh := c.shards[req.Shard]
	n, err := c.camp.Add(req.Records, &sh.r)
	if err != nil {
		return UploadResponse{}, err
	}
	resp := UploadResponse{Accepted: n, ShardDone: c.shardDone(sh)}
	if resp.ShardDone && sh.leaseID != "" {
		delete(c.leases, sh.leaseID)
		sh.leaseID = ""
	}
	done := c.runsDone()
	if resp.ShardDone && n > 0 {
		c.logf("dispatch: shard %d [%d,%d) complete (%d/%d runs)", req.Shard, sh.r.From, sh.r.To, done, len(c.camp.Result.Specs))
	}
	if c.report == nil && done == len(c.camp.Result.Specs) {
		if err := c.finalize(); err != nil {
			return UploadResponse{}, err
		}
	}
	resp.CampaignDone = c.report != nil
	return resp, nil
}

// shardDone reports whether every run in sh is journaled. Caller holds
// mu.
func (c *Coordinator) shardDone(sh *shard) bool {
	for i := sh.r.From; i < sh.r.To; i++ {
		if !c.camp.Result.Done[i] {
			return false
		}
	}
	return true
}

// runsDone counts the journaled runs. Caller holds mu.
func (c *Coordinator) runsDone() int {
	n := 0
	for _, d := range c.camp.Result.Done {
		if d {
			n++
		}
	}
	return n
}

// finalize folds every record in global spec order through the
// single-process report path, caches the bytes, and writes
// report.json. Caller holds mu.
func (c *Coordinator) finalize() error {
	data, err := c.camp.WriteReport()
	if err != nil {
		return err
	}
	c.report = data
	close(c.done)
	c.logf("dispatch: campaign complete: %d runs folded, report in %s", len(c.camp.Result.Specs), c.cfg.Dir)
	return nil
}
