package lock

import (
	"sync"

	"accdb/internal/spi"
)

// waitRegistry is the cross-shard waits-for registry. Shards publish a
// transaction's blocked request into it when the request enqueues and
// withdraw it when the wait finishes; deadlock detection and CancelWait
// resolve transactions to their blocked waiters through it.
//
// The registry holds only the txn → waiter association. The waits-for
// *edges* are not materialised here: they are recomputed from the owning
// shard's queues under that shard's latch (see appendBlockerTxns), so detection
// always sees current blockers instead of a stale published snapshot.
//
// Locking: the registry mutex is a leaf — it is never held while taking a
// shard latch, and no shard latch is held while taking it.
type waitRegistry struct {
	mu      sync.Mutex
	waiting map[spi.TxnID]*waiter
}

func newWaitRegistry() waitRegistry {
	return waitRegistry{waiting: make(map[spi.TxnID]*waiter)}
}

// add publishes w as txn's blocked request.
func (r *waitRegistry) add(txn spi.TxnID, w *waiter) {
	r.mu.Lock()
	r.waiting[txn] = w
	r.mu.Unlock()
}

// remove withdraws w; it is identity-checked so a stale remove cannot drop
// a successor request registered under the same transaction.
func (r *waitRegistry) remove(txn spi.TxnID, w *waiter) {
	r.mu.Lock()
	if r.waiting[txn] == w {
		delete(r.waiting, txn)
	}
	r.mu.Unlock()
}

// get returns txn's currently published waiter, if any. The caller must
// re-check the waiter's granted/err state under its shard latch before
// acting on it.
func (r *waitRegistry) get(txn spi.TxnID) *waiter {
	r.mu.Lock()
	w := r.waiting[txn]
	r.mu.Unlock()
	return w
}
