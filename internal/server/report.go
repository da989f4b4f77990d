package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"path/filepath"

	"repro/internal/regress"
	"repro/internal/rescache"
	"repro/internal/similarity"
)

// Report statuses.  A report is created running, and moves to exactly
// one of done or error when its analysis job completes.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	StatusError   = "error"
)

// Report is the server-side record of one submission: what was
// submitted, the content hash of the canonical profile it produced, and
// the drift verdict against the experiment's baseline.  Once Status
// leaves StatusRunning only the verdict may change, when a dedup hit
// finds the baseline or tolerances moved (rejudge).  Reports are cached
// by ID, which is itself a content hash of the submission — identical
// submissions share one report.
type Report struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"` // "case" or "trace"
	Experiment string `json:"experiment"`
	Status     string `json:"status"`
	// Cached is set on responses served from the report cache without
	// re-running the analysis.
	Cached bool `json:"cached,omitempty"`
	// ProfileHash is the content address of the canonical profile in
	// the store — byte-identical to what the offline CLI path computes
	// for the same input (fetch it via GET /v1/store/{hash}).
	ProfileHash string `json:"profile_hash,omitempty"`
	// BaselineHash identifies the baseline the submission was compared
	// against; empty when the experiment had none yet.
	BaselineHash string `json:"baseline_hash,omitempty"`
	// Saved reports that this request promoted the profile to the
	// experiment baseline (?save=1); it is set on that response only.
	Saved bool `json:"saved,omitempty"`
	// Drift is the verdict: true when the comparison regressed outside
	// tolerance.
	Drift bool `json:"drift"`
	// Diff is the full property-level comparison, present whenever a
	// baseline existed.
	Diff *regress.Diff `json:"diff,omitempty"`
	// RankOutliers lists the submission's behavioral outlier ranks
	// (analyzer.PropRankOutlier findings: stragglers and deviants from
	// similarity.ClusterRanks); empty when every rank clusters with the
	// pack or the run is below the severity gate.
	RankOutliers []similarity.RankFinding `json:"rank_outliers,omitempty"`
	Error        string                   `json:"error,omitempty"`

	// done is closed when the analysis job completes; dedup waiters and
	// the submitting handler block on it.
	done chan struct{}
}

// reportID derives the dedup key of a submission: a content hash over
// everything that determines the analysis result — the submission kind,
// the experiment, any analysis options, and the canonical body bytes.
// Fields are length-prefixed by a NUL separator so distinct tuples
// cannot collide by concatenation.
func reportID(kind, experiment, opts string, body []byte) string {
	h := sha256.New()
	for _, part := range []string{kind, experiment, opts} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// reportsDir is the result cache, under the store root, that holds
// completed reports (package rescache: entries keyed by report ID and
// stamped with the engine versions and profile schema that produced
// them).
const reportsDir = "reports"

// openReports opens the report cache of store.
func openReports(store *regress.Store) (*rescache.Store, error) {
	return rescache.Open(filepath.Join(store.Dir(), reportsDir))
}

// storeReport writes a completed report to the store, so dedup outlives
// its eviction from memory and a restart of the server.  It runs on the
// worker before the report's done channel closes, with the file I/O
// outside s.mu.  Error reports stay in memory only: a transient failure
// must not become a permanent answer.  A failed write is not fatal —
// the report is still served from memory, and a resubmission after its
// eviction re-runs the analysis.
func (s *Server) storeReport(rep *Report) {
	s.mu.Lock()
	snap := *rep
	s.mu.Unlock()
	if snap.Status == StatusDone {
		s.putReport(snap)
	}
}

// putReport writes snap to the report cache; a failure is not fatal
// (see storeReport).
func (s *Server) putReport(snap Report) {
	if s.stored == nil {
		return
	}
	snap.Cached = false
	if blob, err := json.Marshal(snap); err == nil {
		_ = s.stored.Put(snap.ID, blob)
	}
}

// storedReport reads the completed report stored under id.  A missing
// entry, one stamped by another engine version or profile schema, one
// that does not decode, names another ID or is not done is a miss: the
// submission re-runs and its report overwrites the entry.
func (s *Server) storedReport(id string) (Report, bool) {
	if s.stored == nil {
		return Report{}, false
	}
	blob, ok := s.stored.Get(id)
	if !ok {
		return Report{}, false
	}
	var rep Report
	if json.Unmarshal(blob, &rep) != nil || rep.ID != id || rep.Status != StatusDone {
		return Report{}, false
	}
	return rep, true
}

// rejudge brings the verdict of a cached report up to date.  The report
// ID covers the submission, not the baseline it was compared against or
// the drift tolerances, and both can move while the report stays
// cached: a save elsewhere promotes another profile, and a server can
// restart with other tolerances.  When either moved, the stored profile
// is compared again with the current baseline — no analysis re-runs.
// changed reports whether the verdict was recomputed.
func (s *Server) rejudge(snap *Report) (changed bool, err error) {
	baseHash, err := s.cfg.Store.BaselineHash(snap.Experiment)
	if errors.Is(err, regress.ErrNoBaseline) {
		baseHash, err = "", nil
	}
	if err != nil {
		return false, err
	}
	if baseHash == snap.BaselineHash && (snap.Diff == nil || snap.Diff.Tol == s.cfg.Tol.WithDefaults()) {
		return false, nil
	}
	snap.BaselineHash, snap.Diff, snap.Drift = baseHash, nil, false
	if baseHash == "" {
		return true, nil
	}
	base, err := s.cfg.Store.Get(baseHash)
	if err != nil {
		return false, err
	}
	cur, err := s.cfg.Store.Get(snap.ProfileHash)
	if err != nil {
		return false, err
	}
	snap.Diff = regress.Compare(base, cur, s.cfg.Tol)
	snap.Drift = snap.Diff.Regressed()
	return true, nil
}
