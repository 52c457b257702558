package lock

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
)

// refFindCycle is the map-based deadlock search the pooled one replaced:
// a recursive DFS that builds a fresh deduplicated blocker list (and its
// seen-map) for every waiter it visits. It is kept as the reference the
// allocation-free search must agree with, cycle for cycle.
func refFindCycle(m *Manager, w *waiter) []*waiter {
	target := w.txn.ID
	visited := make(map[spi.TxnID]bool)
	var path []*waiter
	var dfs func(cur *waiter) bool
	dfs = func(cur *waiter) bool {
		path = append(path, cur)
		for _, b := range refBlockerTxns(m, cur) {
			if b == target {
				return true
			}
			if visited[b] {
				continue
			}
			visited[b] = true
			if next := m.reg.get(b); next != nil {
				if dfs(next) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if dfs(w) {
		return path
	}
	return nil
}

func refBlockerTxns(m *Manager, w *waiter) []spi.TxnID {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.granted || w.err != nil {
		return nil
	}
	st, ok := sh.items[w.item]
	if !ok {
		return nil
	}
	seen := make(map[spi.TxnID]bool)
	var out []spi.TxnID
	add := func(id spi.TxnID) {
		if id != w.txn.ID && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, g := range st.grants {
		if m.conflictsWithGrant(w.txn, w.req, g) {
			add(g.txn.ID)
		}
	}
	for _, q := range st.queue {
		if q == w {
			break
		}
		if q.err == nil && !q.granted && m.conflictsWithWaiter(w.txn, w.req, q) {
			add(q.txn.ID)
		}
	}
	return out
}

// refVictim is the victim rule as resolveDeadlock applied it inline before
// victimOf was factored out: the closer unless compensating, else the first
// forward-step member; nil when every member compensates.
func refVictim(w *waiter, cycle []*waiter) *waiter {
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

var convModes = []spi.Mode{spi.ModeIS, spi.ModeIX, spi.ModeS, spi.ModeSIX, spi.ModeX}

// randomWaitsFor builds a lock table directly: a few items spread over four
// shards, each with random conventional, assertional (A), exposure (D) and
// reservation (C) grants, and queues of blocked requests — conventional and
// assertional, some compensating — published in the waits-for registry the
// way wait() publishes them. Interference answers are random too, so every
// entry kind both blocks and passes somewhere. It returns every waiter.
func randomWaitsFor(rng *rand.Rand) (*Manager, []*waiter) {
	o := newStub()
	for a := int32(1); a <= 3; a++ {
		for b := int32(1); b <= 3; b++ {
			o.setInterferes(a, b, rng.Intn(2) == 0)
			o.setPrefixSafe(a, b, rng.Intn(2) == 0)
			o.setInterleave(a, b, rng.Intn(2) == 0)
		}
	}
	m := NewManagerWithShards(o, 4)
	const nTxns, nItems = 12, 5
	txns := make([]*spi.Txn, nTxns)
	for i := range txns {
		txns[i] = spi.NewTxn(spi.TxnID(i+1), interference.TxnTypeID(1+rng.Intn(3)))
	}
	items := make([]spi.Item, nItems)
	for i := range items {
		items[i] = spi.RowItem("t", spi.Key(fmt.Sprintf("k%d", i)))
	}
	step := func() interference.StepTypeID { return interference.StepTypeID(1 + rng.Intn(3)) }
	assertion := func() interference.AssertionID { return interference.AssertionID(1 + rng.Intn(3)) }
	for _, it := range items {
		sh := m.shardOf(it)
		st := sh.state(it)
		for n := rng.Intn(4); n > 0; n-- {
			g := &grant{txn: txns[rng.Intn(nTxns)], step: step()}
			switch rng.Intn(4) {
			case 0:
				g.kind, g.mode = kindConventional, convModes[rng.Intn(len(convModes))]
			case 1:
				g.kind, g.assertion = kindAssertional, assertion()
			case 2:
				g.kind = kindExposure
			default:
				g.kind, g.csTypes = kindReservation, []interference.StepTypeID{step(), step()}
			}
			st.grants = append(st.grants, g)
		}
	}
	var ws []*waiter
	for _, i := range rng.Perm(nTxns) {
		if rng.Intn(10) < 3 {
			continue // not blocked anywhere
		}
		it := items[rng.Intn(nItems)]
		req := spi.LockRequest{Step: step(), Compensating: rng.Intn(3) == 0}
		if rng.Intn(3) == 0 {
			req.Mode, req.Assertion = spi.ModeA, assertion()
		} else {
			req.Mode = convModes[rng.Intn(len(convModes))]
		}
		sh := m.shardOf(it)
		w := &waiter{txn: txns[i], req: req, item: it, sh: sh, ch: make(chan struct{}, 1)}
		st := sh.state(it)
		st.queue = append(st.queue, w)
		m.reg.add(w.txn.ID, w)
		ws = append(ws, w)
	}
	return m, ws
}

// The pooled search must find exactly the cycle — same members, same order
// — and pick exactly the victim the map-based reference does, on every
// waiter of every random graph.
func TestDeadlockSearchMatchesReference(t *testing.T) {
	var cycles, compCycles, compVictims int
	for seed := int64(1); seed <= 2000; seed++ {
		m, ws := randomWaitsFor(rand.New(rand.NewSource(seed)))
		s := searchPool.Get().(*cycleSearch)
		for _, w := range ws {
			want := refFindCycle(m, w)
			got := s.find(m, w)
			if (got == nil) != (want == nil) || len(got) != len(want) {
				t.Fatalf("seed %d txn %d: cycle of %d waiters, reference %d", seed, w.txn.ID, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d txn %d: cycle member %d differs", seed, w.txn.ID, i)
				}
			}
			if want == nil {
				continue
			}
			cycles++
			if v, rv := victimOf(w, got), refVictim(w, want); v != rv {
				t.Fatalf("seed %d txn %d: victim %p, reference %p", seed, w.txn.ID, v, rv)
			} else if w.req.Compensating {
				compCycles++
				if v != nil {
					compVictims++
				}
			}
		}
		s.release()
	}
	// The generator must actually exercise the interesting cases.
	if cycles < 500 || compCycles < 200 || compVictims < 100 {
		t.Fatalf("weak coverage: %d cycles, %d closed by compensating steps, %d forward victims",
			cycles, compCycles, compVictims)
	}
	t.Logf("%d cycles, %d closed by compensating steps, %d forward victims", cycles, compCycles, compVictims)
}

// blockedQueue parks depth goroutines, each a distinct transaction
// requesting X on it, behind holder's X grant, and returns once all of them
// are queued and published. release lets the queue drain and waits for it.
func blockedQueue(tb testing.TB, m *Manager, it spi.Item, depth int) (tail *waiter, release func()) {
	tb.Helper()
	holder := spi.NewTxn(1, 1)
	if err := m.Acquire(holder, it, conv(spi.ModeX)); err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < depth; i++ {
		wg.Add(1)
		txn := spi.NewTxn(spi.TxnID(i+2), 1)
		go func() {
			defer wg.Done()
			if err := m.Acquire(txn, it, conv(spi.ModeX)); err != nil {
				tb.Error(err)
				return
			}
			m.ReleaseAll(txn)
		}()
	}
	sh := m.shardOf(it)
	for deadline := time.Now().Add(10 * time.Second); ; {
		sh.mu.Lock()
		q := sh.items[it].queue
		if len(q) == depth {
			tail = q[depth-1]
		}
		sh.mu.Unlock()
		m.reg.mu.Lock()
		published := len(m.reg.waiting)
		m.reg.mu.Unlock()
		if tail != nil && published == depth {
			break
		}
		tail = nil
		if time.Now().After(deadline) {
			tb.Fatalf("queue never reached depth %d", depth)
		}
		time.Sleep(time.Millisecond)
	}
	return tail, func() {
		m.ReleaseAll(holder)
		wg.Wait()
	}
}

// A request that blocks runs the deadlock search every time; on a hot item
// that search walks the whole queue. It must allocate nothing, so a blocked
// Acquire costs only its waiter record and wake-up channel.
func TestDeadlockSearchAllocFree(t *testing.T) {
	m := NewManager(newStub())
	it := item("hot")
	tail, release := blockedQueue(t, m, it, 32)
	defer release()

	s := searchPool.Get().(*cycleSearch)
	defer s.release()
	s.find(m, tail) // size the scratch once, as the pool does in steady state
	if n := testing.AllocsPerRun(200, func() {
		if s.find(m, tail) != nil {
			t.Error("found a cycle in a plain queue")
		}
	}); n != 0 {
		t.Errorf("deadlock search behind a 32-deep queue: %.0f allocs, want 0", n)
	}

	if raceEnabled {
		// The race detector makes sync.Pool drop a quarter of its Puts, so
		// the end-to-end count below would include scratch refills.
		return
	}
	// A cancelled context makes the blocked Acquire enqueue, publish, run
	// the search, then withdraw at once, so the whole wait path is measured
	// without parking.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	txn := spi.NewTxn(1000, 1)
	if n := testing.AllocsPerRun(200, func() {
		if err := m.AcquireCtx(ctx, txn, it, conv(spi.ModeX)); err != context.Canceled {
			t.Errorf("AcquireCtx = %v, want context.Canceled", err)
		}
	}); n > 2 {
		t.Errorf("blocked Acquire behind a 32-deep queue: %.0f allocs, want ≤ 2 (waiter and channel)", n)
	}
}

// BenchmarkDeadlockSearch times one deadlock search from the tail of an X
// queue on a single hot item — the warehouse-row pattern of contended
// TPC-C — at queue depths 4, 16 and 64. The search visits every queued
// waiter, each of which blocks on everything ahead of it. The reference
// sub-benchmarks run the map-based search it replaced, for comparison.
func BenchmarkDeadlockSearch(b *testing.B) {
	for _, depth := range []int{4, 16, 64} {
		for _, impl := range []string{"pooled", "reference"} {
			b.Run(fmt.Sprintf("depth=%d/%s", depth, impl), func(b *testing.B) {
				m := NewManager(newStub())
				tail, release := blockedQueue(b, m, item("hot"), depth)
				defer release()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if impl == "reference" {
						refFindCycle(m, tail)
						continue
					}
					s := searchPool.Get().(*cycleSearch)
					s.find(m, tail)
					s.release()
				}
			})
		}
	}
}
