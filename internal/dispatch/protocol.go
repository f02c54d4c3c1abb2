// Package dispatch shards a campaign across worker processes. A
// coordinator expands the campaign matrix once, partitions the spec
// index space into contiguous shards, and leases shards to workers
// over a small versioned HTTP/JSON API (/api/v1). Each worker runs
// its leased range as an ordinary crash-resumable journaled campaign
// (internal/experiment) and uploads the resulting journal records;
// the coordinator folds uploads in global spec order, so the final
// report is byte-identical to a single-process run of the same
// matrix — regardless of worker count, completion order, crashes, or
// duplicated work from reassigned leases (runs are deterministic, so
// a rerun journals the same record).
package dispatch

import (
	"errors"

	"wlan80211/internal/experiment"
)

// Errors the API maps to HTTP statuses (see api.go).
var (
	// ErrLeaseGone means the heartbeated lease expired or was never
	// issued — the worker should claim again (its finished work still
	// uploads fine).
	ErrLeaseGone = errors.New("dispatch: lease gone")
	// ErrConflict means an upload disagreed about a run's record —
	// with the journal or within itself. Runs are deterministic, so
	// this is corruption or version skew between workers — never a
	// retryable race. It is the campaign fold's own sentinel.
	ErrConflict = experiment.ErrConflict
)

// ClaimRequest asks the coordinator for work.
type ClaimRequest struct {
	// Worker is a display name for logs ("" is fine).
	Worker string `json:"worker,omitempty"`
}

// Lease grants a worker one shard until it expires or completes.
type Lease struct {
	ID    string `json:"id"`
	Shard int    `json:"shard"`
	// From/To are the shard's global spec indices [From, To).
	From int `json:"from"`
	To   int `json:"to"`
	// TTLMS is how long the lease lives without a heartbeat.
	TTLMS int64 `json:"ttl_ms"`
}

// ClaimResponse is exactly one of: a lease, wait-and-retry (all
// pending shards are leased out), or done (every shard folded).
type ClaimResponse struct {
	Done    bool   `json:"done,omitempty"`
	Wait    bool   `json:"wait,omitempty"`
	RetryMS int64  `json:"retry_ms,omitempty"`
	Lease   *Lease `json:"lease,omitempty"`
}

// HeartbeatResponse extends a live lease.
type HeartbeatResponse struct {
	// ExpiresUnixMS is the new expiry on the coordinator's clock.
	ExpiresUnixMS int64 `json:"expires_unix_ms"`
}

// UploadRequest delivers a shard's completed journal records. Lease
// is advisory (logging): uploads are accepted while the shard is
// pending even if the lease expired or the shard was reassigned —
// deterministic work is never wasted, and duplicates dedup by spec
// index.
type UploadRequest struct {
	Lease   string                 `json:"lease,omitempty"`
	Shard   int                    `json:"shard"`
	Records []experiment.RunRecord `json:"records"`
}

// UploadResponse reports what the upload changed.
type UploadResponse struct {
	// Accepted counts records that were new (not already folded).
	Accepted int `json:"accepted"`
	// ShardDone/CampaignDone report completion after this upload.
	ShardDone    bool `json:"shard_done"`
	CampaignDone bool `json:"campaign_done"`
}

// Status is the coordinator's progress view (GET /api/v1/status).
type Status struct {
	Specs        int  `json:"specs"`
	Shards       int  `json:"shards"`
	ShardsDone   int  `json:"shards_done"`
	RunsDone     int  `json:"runs_done"`
	ActiveLeases int  `json:"active_leases"`
	Done         bool `json:"done"`
}
