package lock

import (
	"slices"
	"sync"

	"accdb/internal/spi"
	"accdb/internal/trace"
)

// Deadlock handling (§3.4 of the paper).
//
// A deadlock is detected by finding a cycle in the waits-for graph at the
// moment a request blocks; the victim is the request that completes the
// cycle, which the engine answers by aborting and retrying just that step.
// If the victim is a compensating step, it must not be aborted: instead the
// manager aborts forward-step waiters on the cycle until the compensation
// can make progress ("when a compensating step completes a deadlock cycle,
// it is not itself aborted, but rather, the ACC aborts all steps that are
// delaying it").
//
// Under the sharded lock table the waits-for graph spans shards. Detection
// walks it one shard latch at a time: the registry resolves a blocked
// transaction to its waiter, and each waiter's current blockers are
// recomputed under that waiter's own shard latch. Because no two latches
// are ever held together, the walk observes the graph edge-by-edge rather
// than atomically; that is sound because
//
//   - a real deadlock cycle is stable — every member stays blocked until a
//     victim is removed — so the walk, which runs after the enqueuing
//     waiter has published itself, always sees a complete cycle (the last
//     member to publish is the one whose detection closes it);
//   - a cycle that dissolves mid-walk can at worst produce a spurious
//     victim, which is safe: the victim aborts and retries its step, the
//     same outcome as any genuine deadlock.
//
// The search runs every time a request blocks, so it allocates nothing in
// steady state: its visited set, blocker stack and path come from a
// sync.Pool. Each visited waiter appends its blockers onto the one shared
// stack under its own shard latch, duplicates included; a repeated blocker
// is skipped by the visited check, so the walk visits nodes in the same
// order as a per-node deduplicated blocker list would, and finds the same
// cycle and victim.

// resolveDeadlock checks whether the freshly enqueued waiter w completes a
// waits-for cycle and applies the victim policy. It returns ErrDeadlock if w
// itself must abort. Called with no latches held; w must already be
// published in the registry.
func (m *Manager) resolveDeadlock(w *waiter) error {
	s := searchPool.Get().(*cycleSearch)
	defer s.release()
	for {
		w.sh.mu.Lock()
		settled := w.granted || w.err != nil
		w.sh.mu.Unlock()
		if settled {
			// Removing a victim re-ran the grant pass and resolved w.
			return nil
		}
		cycle := s.find(m, w)
		if cycle == nil {
			return nil
		}
		w.sh.stats.deadlocks.Add(1)
		victim := victimOf(w, cycle)
		if victim == nil || victim == w {
			return spi.ErrDeadlock
		}
		vs := victim.sh
		vs.mu.Lock()
		killed := false
		if !victim.granted && victim.err == nil {
			victim.err = spi.ErrAborted
			m.removeWaiter(vs, victim)
			victim.ch <- struct{}{}
			vs.stats.victimsForComp.Add(1)
			killed = true
		}
		vs.mu.Unlock()
		if killed && m.tracer != nil {
			m.emitLock(trace.KindDeadlockVictim, victim.txn.ID, victim.item, vs,
				victim.req.Mode.String(), 0, "for-compensation")
		}
		// Re-check: w may sit on several overlapping cycles.
	}
}

// victimOf applies the §3.4 victim rule to a cycle closed by w: w itself,
// unless it is a compensating step, in which case the first forward-step
// member of the cycle. It returns nil when every member is compensating —
// the reservation locks are designed to make that impossible; if it happens
// the compensating requester aborts to keep the system live.
func victimOf(w *waiter, cycle []*waiter) *waiter {
	if !w.req.Compensating {
		return w
	}
	for _, v := range cycle {
		if v != w && !v.req.Compensating {
			return v
		}
	}
	return nil
}

// cycleSearch is the scratch state of one deadlock search, recycled through
// searchPool.
type cycleSearch struct {
	target  spi.TxnID
	visited map[spi.TxnID]bool
	// stack holds the blockers of every waiter on the current path, each
	// waiter's run appended above its caller's and truncated on backtrack.
	stack []spi.TxnID
	path  []*waiter
}

var searchPool = sync.Pool{New: func() any {
	return &cycleSearch{visited: make(map[spi.TxnID]bool)}
}}

// release returns the scratch state to the pool. The path is zeroed so the
// pool does not keep finished waiters reachable; find resets the rest.
func (s *cycleSearch) release() {
	clear(s.path[:cap(s.path)])
	searchPool.Put(s)
}

// find searches for a waits-for path from one of w's blockers back to w's
// transaction. It returns the waiters on the cycle (starting with w), or
// nil; the slice is scratch owned by s and valid until the next find or
// release. Called with no latches held.
func (s *cycleSearch) find(m *Manager, w *waiter) []*waiter {
	clear(s.visited)
	s.path, s.stack = s.path[:0], s.stack[:0]
	s.target = w.txn.ID
	if s.dfs(m, w) {
		return s.path
	}
	return nil
}

func (s *cycleSearch) dfs(m *Manager, cur *waiter) bool {
	s.path = append(s.path, cur)
	base := len(s.stack)
	s.stack = m.appendBlockerTxns(s.stack, cur)
	// Deeper frames append above end and truncate back before returning,
	// so this frame's run stays at [base, end) even if the stack regrows.
	for i, end := base, len(s.stack); i < end; i++ {
		b := s.stack[i]
		if b == s.target {
			return true
		}
		if s.visited[b] {
			continue
		}
		s.visited[b] = true
		if next := m.reg.get(b); next != nil && s.dfs(m, next) {
			return true
		}
	}
	s.stack = s.stack[:base]
	s.path = s.path[:len(s.path)-1]
	return false
}

// appendBlockerTxns appends the transactions w currently waits for to dst:
// holders of conflicting grants on its item, and earlier conflicting waiters
// in its queue. It takes (and releases) w's shard latch; a waiter that has
// already been granted or aborted contributes no edges.
func (m *Manager) appendBlockerTxns(dst []spi.TxnID, w *waiter) []spi.TxnID {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.granted || w.err != nil {
		return dst
	}
	st, ok := sh.items[w.item]
	if !ok {
		return dst
	}
	return m.appendBlockersLocked(dst, w, st)
}

// appendBlockersLocked appends w's current blockers to dst in grant-then-
// queue order. A transaction holding several conflicting entries appears
// once per entry; w's own transaction never appears (same-transaction
// entries do not conflict). Caller holds w's shard latch.
func (m *Manager) appendBlockersLocked(dst []spi.TxnID, w *waiter, st *lockState) []spi.TxnID {
	for _, g := range st.grants {
		if m.conflictsWithGrant(w.txn, w.req, g) {
			dst = append(dst, g.txn.ID)
		}
	}
	for _, q := range st.queue {
		if q == w {
			break
		}
		if q.err == nil && !q.granted && m.conflictsWithWaiter(w.txn, w.req, q) {
			dst = append(dst, q.txn.ID)
		}
	}
	return dst
}

// blockersLocked lists w's distinct current blockers in order of first
// appearance, for the waits-for snapshot (snapshot.go). Caller holds w's
// shard latch.
func (m *Manager) blockersLocked(w *waiter, st *lockState) []spi.TxnID {
	all := m.appendBlockersLocked(nil, w, st)
	out := all[:0]
	for _, id := range all {
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}
