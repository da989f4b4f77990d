package mpi

// The event engine: a single-stepped, virtual-clock-ordered scheduler
// that replaces goroutine-per-rank free running (and with it the
// World.spoilers poll loop and the clockFloor fast path) with
// deterministic event dispatch.
//
// Go has no first-class continuations, so a rank's "resumable state
// machine" is its goroutine, parked on a per-rank resume channel: the
// parked stack *is* the continuation, and its memory cost is one small
// goroutine stack — the scheduler's own state stays O(ranks + pending
// events).  There is no scheduler goroutine: the scheduler is the data
// below plus the handoff function, run by whichever goroutine holds the
// run token.
//
//   - At most one rank steps at a time.  The running rank holds the run
//     token; when it parks at a blocking operation or finishes, it pops
//     the ready rank with the minimum (virtual clock, rank) key itself —
//     or resolves wildcard receives at quiescence — and passes the token
//     straight to that rank's resume channel, so each step costs one
//     goroutine switch.  Run makes the first dispatch.  Only the token
//     holder touches scheduler state (the ready heap, the wildcard list,
//     the peers its sends, collective completions and rendezvous acks
//     unblock), so it needs no locks: the token's channel send provides
//     the happens-before edge from one holder to the next, which is why
//     the -race stress tests can enforce the single-threaded dispatch
//     invariant rather than assume it.
//
//   - Blocking operations park instead of spinning: a specific-source
//     receive parks until the matching post readies it; a collective
//     participant parks until the last arriver computes the operation; a
//     rendezvous sender parks until the receiver acknowledges.  No
//     condition variables, no polling, no sleeps.
//
//   - Wildcard (AnySource) receives are resolved at quiescence.  When
//     the ready heap drains, every live rank is parked, so the spoiler
//     question — "could any rank still produce a message arriving before
//     the best queued candidate?" — has a deterministic answer: only a
//     rank whose clock is behind the candidate's arrival and whose own
//     mailbox holds unconsumed messages might.  This is exactly the
//     predicate the goroutine engine's poll loop evaluates, evaluated at
//     a quiescent instant instead of 20µs at a time; releases can only
//     see *more* candidates than the goroutine engine did, and any later
//     candidate from a non-spoiler rank arrives strictly after the
//     chosen one (transfer latency is positive), so both engines choose
//     the same message — the property the differential harness
//     (engine_diff_test.go, conformance.DiffEngines) locks in.
//
//   - A drained heap with no releasable wildcard receive is a structural
//     deadlock, reported immediately with the parked ranks' identities
//     instead of waiting out the real-time watchdog.
//
//   - Failure (a rank panic, a structural deadlock, the watchdog) wakes
//     every parked or ready rank once, from World.fail, and from then on
//     nobody hands the token on: each woken rank unwinds, and a rank that
//     parks later sees World.failed right after storing its parked state
//     and unwinds without blocking.  Storing the state before loading the
//     flag, against fail storing the flag before scanning the states,
//     guarantees every rank either sees the failure or is woken.

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// proc.evState values.  Transitions: evReady -> evRunning (dispatch),
// evRunning -> evRecv/evColl/evAck (park) or evDone (return),
// parked -> evReady (post/completion/grant).
const (
	evRunning int32 = iota // holds the run token (or is being handed it)
	evReady                // in the ready heap
	evRecv                 // parked in mailbox.matchEvent
	evColl                 // parked in collEngine.join
	evAck                  // parked in waitAck (rendezvous sender)
	evDone                 // rank goroutine finished
)

// evWaitName names a parked state for deadlock diagnostics.
func evWaitName(st int32) string {
	switch st {
	case evRecv:
		return "in receive"
	case evColl:
		return "in collective"
	case evAck:
		return "awaiting rendezvous ack"
	case evReady, evRunning:
		return "runnable"
	default:
		return "unknown"
	}
}

// evItem orders the ready heap by (virtual clock at ready time, rank).
// The clock of a parked rank cannot change (only the owning goroutine
// advances it), so the key is stable while queued.
type evItem struct {
	key  float64
	rank int
}

type evHeap []evItem

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].rank < h[j].rank
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(evItem)) }
func (h *evHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// evScheduler is the per-World event dispatcher.  Its fields are owned
// by the goroutine holding the run token (see handoff); live alone is
// atomic, because after a failure several ranks unwind at once.
type evScheduler struct {
	w     *World
	ready evHeap
	live  atomic.Int32
	// wild tracks procs parked in wildcard receives so quiesce never
	// scans all ranks to find its waiters; stale entries (granted or
	// re-parked elsewhere) are compacted away on each quiescence.
	wild []*proc
}

func newEvScheduler(w *World) *evScheduler {
	return &evScheduler{w: w, ready: make(evHeap, 0, len(w.procs))}
}

// readyProc moves a parked (or fresh) proc into the ready heap.  Called
// by the token holder only: at the initial fill, on wildcard grants, and
// for the peers its message posts, collective completions and rendezvous
// acks unblock.
func (s *evScheduler) readyProc(p *proc) {
	p.evState.Store(evReady)
	heap.Push(&s.ready, evItem{key: p.ctx.Clock.Now(), rank: p.rank})
}

// handoff passes the run token to the ready rank with the minimum
// (clock, rank) key, releasing a wildcard receive first if the heap has
// drained.  The caller holds the token and gives it up: it has parked or
// finished (or is Run making the first dispatch).  A drained heap with
// nothing to release is a structural deadlock, which fails the world.
func (s *evScheduler) handoff() {
	if len(s.ready) == 0 && !s.quiesce() {
		s.w.fail(s.deadlockError())
		return
	}
	it := heap.Pop(&s.ready).(evItem)
	p := s.w.procs[it.rank]
	p.evState.Store(evRunning)
	p.evResume <- struct{}{}
}

// quiesce resolves wildcard receives once the ready heap has drained.
// It releases the lowest-ranked AnySource waiter whose best candidate
// can no longer be beaten — no live rank with a clock behind the
// candidate's arrival still holds unconsumed mail — mirroring the
// goroutine engine's spoiler predicate at a quiescent instant.  If every
// waiter with candidates is spoiled by another parked rank's unconsumed
// mailbox (the mutual-wait livelock the goroutine engine escapes with
// its poll cap), the lowest-ranked waiter is deterministically forced to
// accept its best candidate.  Returns false if no rank became runnable.
func (s *evScheduler) quiesce() bool {
	// Compact the waiter list: entries granted or resumed since they were
	// recorded are no longer parked wildcard receives.
	live := s.wild[:0]
	for _, p := range s.wild {
		if p.evState.Load() == evRecv && p.evSrc == AnySource {
			live = append(live, p)
		} else {
			p.evInWild = false
		}
	}
	s.wild = live
	if len(s.wild) == 0 {
		return false
	}
	// Release order is rank order, matching the goroutine engine's
	// deterministic tie-break (list insertion order is parking order).
	sort.Slice(s.wild, func(i, j int) bool { return s.wild[i].rank < s.wild[j].rank })
	occ := s.w.mailOcc.Load()
	var forced *proc
	for _, p := range s.wild {
		avail, idx, ok := p.mb.bestAvail(p.evCid, p.evTag)
		if !ok {
			continue
		}
		// Remember the candidate: if this waiter is granted (here or as
		// the forced fallback), its take reuses the index instead of
		// rescanning the backlog — nothing runs between this scan and the
		// granted rank's resume, so the queue cannot change.
		p.evGrantIdx = idx
		if forced == nil {
			forced = p
		}
		// Occupancy fast path: a waiter with a candidate has mail itself,
		// so occ == 1 means no *other* rank holds mail — nothing can
		// spoil, skip the O(ranks) scan.  This keeps master/worker-style
		// programs (one wildcard drain per message) linear in rank count.
		if occ > 1 && s.spoiled(p, avail) {
			continue
		}
		p.evGrant = true
		s.readyProc(p)
		return true
	}
	if forced != nil {
		forced.evGrant = true
		s.readyProc(forced)
		return true
	}
	return false
}

// spoiled reports whether any rank other than me could still produce a
// message arriving before avail: its clock is behind avail and its own
// mailbox holds deliverable messages it may yet consume and respond to.
// At quiescence no rank is running, so this is the blocked-rank half of
// World.spoilers.
func (s *evScheduler) spoiled(me *proc, avail float64) bool {
	for _, q := range s.w.procs {
		if q == me || q.evState.Load() == evDone {
			continue
		}
		if q.ctx.Clock.Now() < avail && q.mb.qlen.Load() > 0 {
			return true
		}
	}
	return false
}

// deadlockError names the parked ranks (the watchdog-timeout upgrade the
// event engine makes possible: a structural deadlock is detected the
// moment it forms).
func (s *evScheduler) deadlockError() error {
	var parked []string
	blocked := 0
	for _, p := range s.w.procs {
		st := p.evState.Load()
		if st == evDone {
			continue
		}
		blocked++
		if len(parked) < 8 {
			parked = append(parked, fmt.Sprintf("rank %d %s", p.rank, evWaitName(st)))
		}
	}
	more := ""
	if blocked > len(parked) {
		more = fmt.Sprintf(", and %d more", blocked-len(parked))
	}
	return fmt.Errorf("mpi: deadlock detected: %d rank(s) blocked with nothing deliverable (%s%s)",
		blocked, strings.Join(parked, "; "), more)
}

// wakeAll implements waker: on the world's first failure it resumes
// every parked or ready rank so it observes the failure (park panics with
// an abortError once World.failed is set; a rank never dispatched skips
// its body) and unwinds.  Sends are non-blocking: a rank may already hold
// an unconsumed token, which is all it needs to wake.  A rank stuck in
// user code never finishes; Run's watchdog grace period gives up on the
// world in that case, exactly as the goroutine engine does.
func (s *evScheduler) wakeAll() {
	for _, p := range s.w.procs {
		switch p.evState.Load() {
		case evReady, evRecv, evColl, evAck:
			select {
			case p.evResume <- struct{}{}:
			default:
			}
		}
	}
}

// park blocks the calling rank until it is handed the run token again:
// the rank's half of the handoff protocol, called from every event-engine
// blocking point with no locks held.  kind records why the rank is
// parked (deadlock diagnostics, failure wake-ups); receive parks
// additionally set evCid/evSrc/evTag first.  On a failed world park
// panics with the abort error instead of blocking, so unwinding never
// stalls.
func (p *proc) park(kind int32) {
	w, s := p.w, p.w.sched
	p.evState.Store(kind)
	if w.failed.Load() {
		panic(abortError{cause: w.failError()})
	}
	if kind == evRecv && p.evSrc == AnySource && !p.evInWild {
		p.evInWild = true
		s.wild = append(s.wild, p)
	}
	s.handoff()
	<-p.evResume
	if w.failed.Load() {
		panic(abortError{cause: w.failError()})
	}
}
