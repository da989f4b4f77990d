package mpi

import (
	"fmt"
	"sync/atomic"

	"repro/internal/vtime"
)

// Engine selects the rank-execution strategy of a World run.
//
// The event engine (the Virtual-mode default) drives ranks as resumable
// state machines ordered by a virtual-clock event queue: exactly one rank
// holds the run token at a time, and a blocking operation parks the
// rank's goroutine after the rank itself passes the token to the ready
// rank with the lowest (clock, rank) key — there is no scheduler
// goroutine in between.  Wildcard receives are resolved at event-queue
// quiescence instead of by polling.  It produces traces
// byte-identical to the goroutine engine (the migration oracle in
// engine_diff_test.go enforces this) while scaling to 10⁴–10⁵ ranks in
// one process, because no rank ever spins and scheduler state is
// O(ranks + pending events).
//
// The goroutine engine runs every rank as a free-running goroutine with
// condition-variable blocking and the spoiler poll loop for wildcard
// receives — the pre-event-queue behaviour, kept as a migration escape
// hatch and as the only engine for Real (wall-clock) mode, where genuine
// host parallelism is the point.
type Engine uint8

const (
	// EngineAuto resolves to the process default (see SetDefaultEngine):
	// the event engine for Virtual mode, the goroutine engine for Real.
	EngineAuto Engine = iota
	// EngineEvent is the single-stepped event-queue scheduler
	// (Virtual mode only; Real-mode runs fall back to goroutines).
	EngineEvent
	// EngineGoroutine is goroutine-per-rank execution.
	EngineGoroutine
)

// String names the engine for flags and logs.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineEvent:
		return "event"
	case EngineGoroutine:
		return "goroutine"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// Engine implementation versions: the invalidation epoch recorded in
// content-addressed result-cache keys (internal/rescache).  Bump an
// engine's version whenever a change could alter its observable output —
// serialized traces, profile hashes, error text surfaced into cached
// outcomes — even if the change is believed equivalent; a stale bump
// costs one cold sweep, a missed bump serves wrong results forever.
const (
	eventEngineVersion     = 1
	goroutineEngineVersion = 1
)

// Version returns the engine's observable-output version (see the bump
// rules above).  EngineAuto reports the version of the engine it would
// resolve to for a Virtual-mode run.
func (e Engine) Version() int {
	switch resolveEngine(e, vtime.Virtual) {
	case EngineEvent:
		return eventEngineVersion
	case EngineGoroutine:
		return goroutineEngineVersion
	default:
		return 0
	}
}

// EffectiveDefault returns the concrete engine a Virtual-mode run with
// Options.Engine == EngineAuto executes on — the engine identity cache
// keys and calibration keys must record, since "auto" is not an identity.
func EffectiveDefault() Engine { return resolveEngine(EngineAuto, vtime.Virtual) }

// ParseEngine parses a -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "event":
		return EngineEvent, nil
	case "goroutine":
		return EngineGoroutine, nil
	default:
		return EngineAuto, fmt.Errorf("mpi: unknown engine %q (want auto, event or goroutine)", s)
	}
}

// defaultEngine is the process-wide engine used when Options.Engine is
// EngineAuto, itself defaulting to EngineAuto (= event for Virtual mode).
// It exists so CLI tools can apply one -engine flag to every run they
// orchestrate without threading the option through every experiment
// signature.
var defaultEngine atomic.Uint32

// SetDefaultEngine sets the process-wide engine applied to runs whose
// Options.Engine is EngineAuto.
func SetDefaultEngine(e Engine) { defaultEngine.Store(uint32(e)) }

// DefaultEngine returns the engine set by SetDefaultEngine.
func DefaultEngine() Engine { return Engine(defaultEngine.Load()) }

// resolveEngine maps the option (and the process default) to the concrete
// engine for a run in the given clock mode.  The event scheduler is
// meaningless under wall-clock time — there is no virtual clock to order
// the event queue by — so Real mode always runs on goroutines.
func resolveEngine(e Engine, mode vtime.Mode) Engine {
	if e == EngineAuto {
		e = DefaultEngine()
	}
	if e == EngineAuto {
		e = EngineEvent
	}
	if mode == vtime.Real {
		return EngineGoroutine
	}
	return e
}
