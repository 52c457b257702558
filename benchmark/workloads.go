package main

import (
	"accdb/internal/core"
	"accdb/internal/tpcc"
)

// workload is one named traffic mix the benchmark can run. Later changes
// refer to the workloads by name, so names and parameters are part of the
// benchmark's contract: changing one invalidates every recorded baseline.
type workload struct {
	name string
	// partitions is the engine count: 1 serves a single core.Engine, more
	// serve a partition.Set over that many engines.
	partitions int
	// warehouses is the TPC-C scale; every partition owns at least one.
	warehouses int
	mix        tpcc.Mix
	// remotePct is the share of new-orders with one remote supply line.
	remotePct int
	// readTier routes order-status and stock-level; writers always run at
	// the locked tier.
	readTier  core.ReadTier
	terminals int
	// durable backs each partition with its own disk WAL (wal.Open) with a
	// group-commit window, so every end-of-step and commit force is an
	// fsync. Otherwise the engine keeps its in-memory log with no simulated
	// force latency.
	durable bool
}

// workloads are the named workloads. Why each exists:
//
//   - contended-memlog is the paper's high-contention operating region (one
//     warehouse, 64 terminals) without simulated I/O: CPU-bound, so the
//     scheduler, the lock manager, storage and the Go runtime do most of the
//     work. 16 terminals run faster than 64 here (lock thrashing), and this
//     workload keeps that visible.
//   - snapshot-readheavy sends 82% of its transactions through the snapshot
//     read tier, which takes no locks and writes no WAL: the wire/server
//     shell and storage as-of reads dominate. A lock or WAL change should
//     leave it unchanged.
//   - memlog-2part runs the multi-shot cross-partition coordinator (decision
//     records, per-shot commits, undo shots) over two engines with
//     in-memory logs.
//   - durable-2part is memlog-2part over fsync'd disk WALs with group
//     commit, the only workload where those do real work.
//
// The two partitioned workloads run by name but are not in BENCHMARK.json:
// on a shared virtual machine their run-to-run spread exceeded every bound
// the benchmark may set (see README.md).
var workloads = []workload{
	{
		name:       "contended-memlog",
		partitions: 1,
		warehouses: 1,
		mix:        tpcc.DefaultMix(),
		terminals:  64,
	},
	{
		name:       "snapshot-readheavy",
		partitions: 1,
		warehouses: 1,
		mix:        tpcc.ReadHeavyMix(),
		readTier:   core.TierSnapshot,
		terminals:  16,
	},
	{
		name:       "memlog-2part",
		partitions: 2,
		warehouses: 2,
		mix:        tpcc.DefaultMix(),
		remotePct:  10,
		terminals:  16,
	},
	{
		name:       "durable-2part",
		partitions: 2,
		warehouses: 2,
		mix:        tpcc.DefaultMix(),
		remotePct:  10,
		terminals:  16,
		durable:    true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale is the workload's TPC-C database size: accd's default scale with
// the warehouse count widened to the workload's.
func (w workload) scale() tpcc.Scale {
	s := tpcc.DefaultScale()
	s.Warehouses = w.warehouses
	return s
}

// workloadConfig is the input generator's configuration.
func (w workload) workloadConfig() tpcc.WorkloadConfig {
	cfg := tpcc.DefaultWorkloadConfig(w.scale())
	cfg.Mix = w.mix
	cfg.RemotePercent = w.remotePct
	cfg.ReadTier = w.readTier
	return cfg
}
