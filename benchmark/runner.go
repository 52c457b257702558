package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/server"
	"accdb/internal/tpcc"
	"accdb/internal/trace"
)

// txnTypes are the TPC-C transaction types the terminals send, in the
// order the benchmark reports them.
var txnTypes = [...]string{"new_order", "payment", "order_status", "delivery", "stock_level"}

const numTxnTypes = len(txnTypes)

func txnIndex(name string) int {
	for i, n := range txnTypes {
		if n == name {
			return i
		}
	}
	return -1
}

// timedRunner decorates the server.Runner the server drives — a
// core.Engine or a partition.Set — timing every transaction per type and,
// for new-order, per route: cross-partition when a supply line lives in
// another partition than the home warehouse, as tpcc.InstallRoutes splits
// it. TypeBytes, Close and Closed pass through the embedded Runner.
type timedRunner struct {
	server.Runner
	partitions int
	on         *atomic.Bool

	calls [numTxnTypes]atomic.Uint64
	nanos [numTxnTypes]atomic.Int64

	mu     sync.Mutex
	single []time.Duration
	cross  []time.Duration
}

func (r *timedRunner) RunReadTypeContextSpan(ctx context.Context, tt *core.TxnType, args any, tier core.ReadTier, sp *trace.Span) error {
	start := time.Now()
	err := r.Runner.RunReadTypeContextSpan(ctx, tt, args, tier, sp)
	d := time.Since(start)
	if !r.on.Load() {
		return err
	}
	if i := txnIndex(tt.Name); i >= 0 {
		r.calls[i].Add(1)
		r.nanos[i].Add(int64(d))
	}
	cross := tier == core.TierLocked && r.crossPartition(args)
	r.mu.Lock()
	if cross {
		r.cross = append(r.cross, d)
	} else {
		r.single = append(r.single, d)
	}
	r.mu.Unlock()
	return err
}

// crossPartition reports whether the multi-shot coordinator runs args.
func (r *timedRunner) crossPartition(args any) bool {
	a, ok := args.(*tpcc.NewOrderArgs)
	if !ok || r.partitions <= 1 {
		return false
	}
	home := tpcc.PartitionOf(a.WID, r.partitions)
	for _, l := range a.Lines {
		if tpcc.PartitionOf(l.SupplyW, r.partitions) != home {
			return true
		}
	}
	return false
}
