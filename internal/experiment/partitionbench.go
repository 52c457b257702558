package experiment

// The partition scaling experiment: TPC-C against an in-memory partition
// set, measuring the single-partition fast path and the multi-shot
// cross-partition path separately. The interesting ratio is cross-partition
// cost against the remote-warehouse share: at 0% the router adds one map
// lookup over a plain engine; every remote new-order pays the decision
// record force plus one forced shot commit per foreign supply warehouse.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/metrics"
	"accdb/internal/partition"
	"accdb/internal/tpcc"
)

// PartitionBenchConfig parameterizes one partition-throughput measurement.
type PartitionBenchConfig struct {
	// Partitions is the partition count (default 4).
	Partitions int
	// Terminals is the concurrent driver count (default 16).
	Terminals int
	// RemotePercent is the share of new-orders with a remote supply
	// warehouse. Zero is meaningful — the pure fast-path baseline — so there
	// is no default.
	RemotePercent int
	// Duration is the measured interval (default 3s); Warmup precedes it.
	Duration time.Duration
	Warmup   time.Duration
	// Seed drives load and the initial database.
	Seed int64
	// Scale is the database cardinality (default: DefaultScale with one
	// warehouse per partition at minimum).
	Scale tpcc.Scale
}

// PartitionBenchResult reports the split throughput.
type PartitionBenchResult struct {
	// Elapsed is the measured interval actually timed.
	Elapsed time.Duration
	// Completed counts transactions committed during the interval.
	Completed int
	// Stats is the routing/coordinator counter delta over the interval.
	Stats partition.Stats
	// SingleTput and CrossTput are committed transactions per second through
	// each path (cross counts globals, not shots).
	SingleTput float64
	CrossTput  float64
}

// RunPartitionBench measures a partitioned TPC-C run and splits throughput
// by routing path.
func RunPartitionBench(cfg PartitionBenchConfig) (*PartitionBenchResult, error) {
	if cfg.Partitions == 0 {
		cfg.Partitions = 4
	}
	if cfg.Terminals == 0 {
		cfg.Terminals = 16
	}
	if cfg.Duration == 0 {
		cfg.Duration = 3 * time.Second
	}
	if cfg.Scale.Warehouses == 0 {
		cfg.Scale = tpcc.DefaultScale()
	}
	if cfg.Scale.Warehouses < cfg.Partitions {
		cfg.Scale.Warehouses = cfg.Partitions
	}

	set, err := tpcc.NewSet(cfg.Partitions, cfg.Scale, cfg.Seed, func(int) ([]core.Option, error) {
		return []core.Option{core.WithMode(core.ModeACC), core.WithWaitTimeout(10 * time.Second)}, nil
	})
	if err != nil {
		return nil, err
	}
	defer set.Close()

	wcfg := tpcc.DefaultWorkloadConfig(cfg.Scale)
	wcfg.RemotePercent = cfg.RemotePercent
	w := tpcc.NewRemoteWorkload(set.Run, wcfg)

	var committed atomic.Int64
	var measuring atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.Terminals; i++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(term)*7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if out, _ := w.Next(r, term).Run(); out == metrics.Committed && measuring.Load() {
					committed.Add(1)
				}
			}
		}(i)
	}

	time.Sleep(cfg.Warmup)
	before := set.Snapshot()
	measuring.Store(true)
	start := time.Now()
	time.Sleep(cfg.Duration)
	elapsed := time.Since(start)
	after := set.Snapshot()
	close(stop)
	wg.Wait()

	res := &PartitionBenchResult{
		Elapsed:   elapsed,
		Completed: int(committed.Load()),
		Stats: partition.Stats{
			SingleRouted:   after.SingleRouted - before.SingleRouted,
			CrossStarted:   after.CrossStarted - before.CrossStarted,
			CrossCommitted: after.CrossCommitted - before.CrossCommitted,
			CrossAborted:   after.CrossAborted - before.CrossAborted,
			ShotsRun:       after.ShotsRun - before.ShotsRun,
			ShotUndos:      after.ShotUndos - before.ShotUndos,
			CrossDeadlocks: after.CrossDeadlocks - before.CrossDeadlocks,
		},
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		// SingleRouted counts routed attempts, not commits; the committed
		// counter splits by share since per-path commit counters would put an
		// atomic on the fast path this subsystem promises not to touch.
		routed := res.Stats.SingleRouted + res.Stats.CrossStarted
		if routed > 0 {
			res.SingleTput = float64(res.Completed) * float64(res.Stats.SingleRouted) / float64(routed) / secs
			res.CrossTput = float64(res.Completed) * float64(res.Stats.CrossStarted) / float64(routed) / secs
		}
	}
	return res, nil
}
