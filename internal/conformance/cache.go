package conformance

// Result-cache wiring: the conformance oracle is a pure function of
// (case, options, engine, engine version, perturbation profile), which
// makes its verdicts ideal content-addressed cache entries — a warm
// sweep replays stored Outcomes byte-identically instead of re-running
// run+trace+analyze.  The cache is process-wide (SetResultCache), like
// mpi.SetDefaultEngine: CLIs install it once from their -cache flag and
// every sweep layer — CheckCached, CheckRobust's per-level loop,
// noise-floor calibration, the engine differential — shares it.

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/perturb"
	"repro/internal/profile"
	"repro/internal/rescache"
)

// resultCache is the installed process-wide store (nil: caching off).
var resultCache atomic.Pointer[rescache.Store]

// SetResultCache installs (or, with nil, removes) the process-wide
// result cache consulted by CheckCached, CheckRobust, DiffEnginesCached
// and CalibratedNoiseFloor.
func SetResultCache(s *rescache.Store) { resultCache.Store(s) }

// ResultCache returns the installed result cache, or nil.
func ResultCache() *rescache.Store { return resultCache.Load() }

// checkKeyDoc is everything a Check outcome depends on.  The engine
// identity and version are load-bearing: an outcome computed under one
// engine must never be served to a sweep running another (the
// calibration cache historically omitted exactly this and is the
// cautionary tale), and an engine change invalidates by version bump.
type checkKeyDoc struct {
	Kind            string          `json:"kind"`
	Case            Case            `json:"case"`
	NoiseFloor      float64         `json:"noise_floor"`
	RelTol          float64         `json:"rel_tol"`
	AbsTol          float64         `json:"abs_tol"`
	SkipDeterminism bool            `json:"skip_determinism"`
	DropProperty    string          `json:"drop_property,omitempty"`
	Perturb         perturb.Profile `json:"perturb"`
	Engine          string          `json:"engine"`
	EngineVersion   int             `json:"engine_version"`
	ProfileSchema   int             `json:"profile_schema"`
}

// checkKey derives the content key of one oracle invocation.
func checkKey(cs Case, opt CheckOptions) (string, error) {
	opt = opt.withDefaults()
	eng := mpi.EffectiveDefault()
	return rescache.Key(checkKeyDoc{
		Kind:            "conformance/check",
		Case:            cs,
		NoiseFloor:      opt.NoiseFloor,
		RelTol:          opt.RelTol,
		AbsTol:          opt.AbsTol,
		SkipDeterminism: opt.SkipDeterminism,
		DropProperty:    opt.DropProperty,
		Perturb:         opt.Perturb,
		Engine:          eng.String(),
		EngineVersion:   eng.Version(),
		ProfileSchema:   profile.SchemaVersion,
	})
}

// CheckCached is Check behind the process-wide result cache: a hit
// returns the stored Outcome without executing anything; a miss runs
// Check and writes the verdict through.  Without an installed cache it
// is exactly Check.  Errors (ill-formed cases) are never cached;
// failing Outcomes are — a deterministic FAIL verdict is as replayable
// as an ok one, and a warm rerun of a failing sweep must print the same
// bytes.
func CheckCached(cs Case, opt CheckOptions) (Outcome, error) {
	return cached(func() (string, error) { return checkKey(cs, opt) },
		func() (Outcome, error) { return Check(cs, opt) })
}

// cached runs compute behind the installed result cache under the key
// that key derives: one Get, and on a miss at most one best-effort Put.
// Without a cache, or when the key cannot be derived, it is exactly
// compute.  Errors are never cached, and an undecodable entry is
// recomputed and overwritten.
func cached[T any](key func() (string, error), compute func() (T, error)) (T, error) {
	c := ResultCache()
	if c == nil {
		return compute()
	}
	k, err := key()
	if err != nil {
		return compute()
	}
	if blob, ok := c.Get(k); ok {
		var v T
		if json.Unmarshal(blob, &v) == nil {
			return v, nil
		}
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	if blob, merr := json.Marshal(v); merr == nil {
		_ = c.Put(k, blob) // best-effort write-through
	}
	return v, nil
}

// diffKeyDoc keys an engine-differential outcome: it depends on both
// engines, so both versions are part of the key.
type diffKeyDoc struct {
	Kind             string          `json:"kind"`
	Case             Case            `json:"case"`
	Perturb          perturb.Profile `json:"perturb"`
	EventVersion     int             `json:"event_version"`
	GoroutineVersion int             `json:"goroutine_version"`
	ProfileSchema    int             `json:"profile_schema"`
}

// DiffEnginesCached is DiffEngines behind the process-wide result cache.
// Only agreeing outcomes are cached: a divergence is a finding about the
// running binary and must be re-observed, never replayed from disk.
func DiffEnginesCached(cs Case, prof perturb.Profile) (DiffOutcome, error) {
	return cached(func() (string, error) {
		return rescache.Key(diffKeyDoc{
			Kind:             "conformance/diff",
			Case:             cs,
			Perturb:          prof,
			EventVersion:     mpi.EngineEvent.Version(),
			GoroutineVersion: mpi.EngineGoroutine.Version(),
			ProfileSchema:    profile.SchemaVersion,
		})
	}, func() (DiffOutcome, error) { return DiffEngines(cs, prof) })
}

// calKeyDoc keys one noise-floor calibration cell.  The profile's seed
// is normalized away by the caller (the floor is a property of shape ×
// disturbance magnitudes alone); the engine identity is not — see the
// regression test in cache_test.go.
type calKeyDoc struct {
	Kind          string          `json:"kind"`
	Procs         int             `json:"procs"`
	Threads       int             `json:"threads"`
	Profile       perturb.Profile `json:"profile"`
	Engine        string          `json:"engine"`
	EngineVersion int             `json:"engine_version"`
}

// calDiskKey derives the on-disk key of one calibration cell.
func calDiskKey(k calKey) (string, error) {
	return rescache.Key(calKeyDoc{
		Kind:          "conformance/calibration",
		Procs:         k.procs,
		Threads:       k.threads,
		Profile:       k.prof,
		Engine:        k.engine,
		EngineVersion: mpi.EffectiveDefault().Version(),
	})
}

// calCacheLoad consults the on-disk store for a calibration cell.
func calCacheLoad(k calKey) (float64, bool) {
	c := ResultCache()
	if c == nil {
		return 0, false
	}
	key, err := calDiskKey(k)
	if err != nil {
		return 0, false
	}
	blob, ok := c.Get(key)
	if !ok {
		return 0, false
	}
	var floor float64
	if json.Unmarshal(blob, &floor) != nil {
		return 0, false
	}
	return floor, true
}

// calCacheStore writes a calibration cell through to the on-disk store.
func calCacheStore(k calKey, floor float64) {
	c := ResultCache()
	if c == nil {
		return
	}
	key, err := calDiskKey(k)
	if err != nil {
		return
	}
	if blob, merr := json.Marshal(floor); merr == nil {
		_ = c.Put(key, blob)
	}
}
