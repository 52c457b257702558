package experiment

// The crash matrix: for every registered fault injection point, run a TPC-C
// mix against a disk-backed partition set — one partition by default, the
// single-engine deployment — trip the point mid-load, restart (fresh base
// state, reopened logs), recover, and verify the consistency battery over
// the union of the partition stores; then re-admit load on the recovered
// set and verify again. DESIGN.md §10 documents the protocol this harness
// checks: recovery is only trusted because every durability transition has
// been crashed through. The partition.coord.* points fire only when a
// remote-heavy mix spans several partitions; they freeze EVERY partition's
// log at once, the way a process kill would, and restart adds the
// coordinator's decision-record completion pass to per-partition recovery.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/fault"
	"accdb/internal/metrics"
	"accdb/internal/partition"
	"accdb/internal/tpcc"
	"accdb/internal/wal"
)

// CrashConfig parameterizes one crash-matrix case.
type CrashConfig struct {
	// Point is the injection point to trip, with its natural effect
	// (typically one entry of fault.Points()). The partition.coord.* points
	// fire only with Partitions > 1.
	Point fault.Info
	// Nth fires the effect on the point's nth hit (default 3 — past the
	// trivial first-use cases).
	Nth uint64
	// Seed drives the load generator, the fault controller, and the initial
	// database load; one (point, seed, nth) triple replays exactly.
	Seed int64
	// WALDir is the parent directory; partition p logs under WALDir/p<p>
	// (required; caller owns cleanup).
	WALDir string
	// Partitions is the partition count (default 1). The scale's warehouse
	// count is forced to at least this, so every partition owns a warehouse.
	Partitions int
	// Terminals is the concurrent driver count (default 8).
	Terminals int
	// MaxOps stops the doomed run if the point has not fired after this many
	// transactions (default 4000).
	MaxOps int
	// RerunOps is how many transactions the recovered set runs before the
	// final consistency check (default 300).
	RerunOps int
	// RemotePercent is the share of new-orders with a remote supply line
	// (default 25 — every such order on a foreign warehouse is a
	// cross-partition transaction; ignored with one warehouse).
	RemotePercent int
	// Scale is the database cardinality (default CrashScale with one
	// warehouse per partition).
	Scale tpcc.Scale
	// SegmentSize is the per-partition WAL rotation threshold; kept small so
	// rotation points get exercised (default 32 KiB).
	SegmentSize int64
	// GroupWindow is the WAL group-commit window; kept small but nonzero so
	// the group-commit fault point gets exercised (default 100 µs).
	GroupWindow time.Duration
}

// CrashResult reports one crash-matrix case.
type CrashResult struct {
	// Fired reports whether the armed point actually tripped during the run
	// (a Delay point counts as fired once it has been hit).
	Fired bool
	// Committed sums the committed transactions recovery found across all
	// partition logs (remote shots count on their own partitions).
	Committed int
	// Compensated sums the transactions local recovery rolled back by
	// compensating step.
	Compensated int
	// ForwardDriven and Undone count the open decision records the
	// coordinator pass closed each way.
	ForwardDriven int
	Undone        int
	// TornTail is the first tail damage a reopened partition log reported,
	// in partition order, if any.
	TornTail *wal.ErrTornTail
	// Violations is the consistency battery on the recovered, quiescent
	// state, evaluated across every partition store.
	Violations []error
	// RerunCompleted and RerunViolations cover the post-recovery load: the
	// recovered set must not merely hold a consistent state but keep
	// producing them.
	RerunCompleted  int
	RerunViolations []error
}

// CrashScale is the default crash-matrix cardinality: small enough that a
// case runs in well under a second, hot enough that the mix exercises
// multi-step interleaving and compensation.
func CrashScale() tpcc.Scale {
	return tpcc.Scale{
		Warehouses: 1, Districts: 4, CustomersPerDistrict: 20,
		Items: 50, InitialOrdersPerDistrict: 20, NewOrderBacklog: 8,
	}
}

type crashSystem struct {
	set *partition.Set
	w   *tpcc.Workload
}

func (sys *crashSystem) dbs() []*core.DB {
	dbs := make([]*core.DB, sys.set.Partitions())
	for p := range dbs {
		dbs[p] = sys.set.Engine(p).DB()
	}
	return dbs
}

// logs runs f on every partition's log.
func (sys *crashSystem) logs(f func(*wal.Log)) {
	for _, e := range sys.set.Engines() {
		f(e.Log())
	}
}

func (sys *crashSystem) close() {
	sys.set.Close()
	sys.logs(func(l *wal.Log) { l.Close() })
}

// buildCrashSystem assembles the system: per partition a fresh base state
// (deterministic in cfg.Seed), its own log under WALDir/p<p>, and a
// registered ACC engine; then the routing table and a workload bound to the
// set. A fifth of new-orders roll back via the unused-item rule, keeping
// the compensation path hot so comp-force fault points fire quickly.
func buildCrashSystem(cfg CrashConfig) (*crashSystem, error) {
	set, err := tpcc.NewSet(cfg.Partitions, cfg.Scale, cfg.Seed, func(p int) ([]core.Option, error) {
		l, err := wal.Open(filepath.Join(cfg.WALDir, fmt.Sprintf("p%d", p)),
			wal.Options{SegmentSize: cfg.SegmentSize, GroupWindow: cfg.GroupWindow})
		if err != nil {
			return nil, err
		}
		return []core.Option{
			core.WithMode(core.ModeACC),
			core.WithWaitTimeout(10 * time.Second),
			core.WithWAL(l),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	wcfg := tpcc.DefaultWorkloadConfig(cfg.Scale)
	wcfg.RollbackPercent = 20
	wcfg.RemotePercent = cfg.RemotePercent
	return &crashSystem{set: set, w: tpcc.NewRemoteWorkload(set.Run, wcfg)}, nil
}

// RunCrash executes one crash-matrix case: doomed run, crash, restart,
// per-partition + coordinator recovery, consistency check, re-run,
// consistency check.
func RunCrash(cfg CrashConfig) (*CrashResult, error) {
	if cfg.Nth == 0 {
		cfg.Nth = 3
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}
	if cfg.Terminals == 0 {
		cfg.Terminals = 8
	}
	if cfg.MaxOps == 0 {
		cfg.MaxOps = 4000
	}
	if cfg.RerunOps == 0 {
		cfg.RerunOps = 300
	}
	if cfg.RemotePercent == 0 {
		cfg.RemotePercent = 25
	}
	if cfg.Scale.Warehouses == 0 {
		cfg.Scale = CrashScale()
	}
	if cfg.Scale.Warehouses < cfg.Partitions {
		cfg.Scale.Warehouses = cfg.Partitions
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = 32 << 10
	}
	if cfg.GroupWindow == 0 {
		cfg.GroupWindow = 100 * time.Microsecond
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("experiment: crash case needs a WAL directory")
	}

	// Phase 1: the doomed run.
	sys, err := buildCrashSystem(cfg)
	if err != nil {
		return nil, err
	}
	ctrl := fault.NewController(cfg.Seed)
	spec := fault.Spec{Effect: cfg.Point.Effect, Nth: cfg.Nth}
	if cfg.Point.Effect == fault.Delay {
		spec.Nth = 0
		if cfg.MaxOps > 1000 {
			cfg.MaxOps = 1000
		}
	}
	ctrl.Arm(cfg.Point.Name, spec)
	ctrl.Activate()

	// The partition.coord.* points freeze every partition log themselves;
	// a generic point (wal.*, core.*) freezes only the log it fired in. The
	// partitions share one process here, so a fired crash must take all the
	// logs down together — otherwise healthy partitions keep writing durably
	// after the "kill", a failure mode no single-process deployment has.
	watcherDone := make(chan struct{})
	var watcherWG sync.WaitGroup
	if cfg.Point.Effect != fault.Delay {
		watcherWG.Add(1)
		go func() {
			defer watcherWG.Done()
			select {
			case <-ctrl.Crashed():
				sys.logs((*wal.Log).Crash)
			case <-watcherDone:
			}
		}()
	}

	var ops atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < cfg.Terminals; i++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(term)*7919))
			for {
				select {
				case <-ctrl.Crashed():
					return
				default:
				}
				if ops.Add(1) > int64(cfg.MaxOps) {
					return
				}
				sys.w.Next(r, term).Run()
			}
		}(i)
	}
	wg.Wait()
	close(watcherDone)
	watcherWG.Wait()
	fault.Deactivate()

	if cfg.Point.Effect != fault.Delay && ctrl.FiredPoint() != "" {
		// Deterministic backstop for the watcher's race window — and it keeps
		// sys.close() (whose Engine.Close forces the log) from making healthy
		// partitions' post-crash tails durable.
		sys.logs((*wal.Log).Crash)
	}

	res := &CrashResult{}
	switch cfg.Point.Effect {
	case fault.Delay:
		res.Fired = ctrl.Hits(cfg.Point.Name) > 0
		// No crash: quiesce cleanly so restart still exercises Open.
		sys.logs((*wal.Log).Force)
	default:
		res.Fired = ctrl.FiredPoint() == cfg.Point.Name
	}
	sys.close()

	// Phase 2: restart — fresh base state per partition (same seed), reopened
	// logs, per-partition recovery plus the coordinator completion pass.
	sys2, err := buildCrashSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer sys2.close()
	for p, e := range sys2.set.Engines() {
		if tt := e.Log().TornTail(); tt != nil && !tt.Clean() {
			return res, fmt.Errorf("experiment: partition %d crash left corrupt (not torn) log: %w", p, tt)
		}
	}
	rres, err := sys2.set.Recover()
	if err != nil {
		return res, err
	}
	res.ForwardDriven = len(rres.ForwardDriven)
	res.Undone = len(rres.Undone)
	holes := map[tpcc.DistrictKey]map[int64]bool{}
	for _, pr := range rres.Partitions {
		res.Committed += pr.Committed
		res.Compensated += len(pr.Compensated)
		if res.TornTail == nil {
			res.TornTail = pr.TornTail
		}
		for dk, hs := range tpcc.HolesFromRecovery(pr) {
			if holes[dk] == nil {
				holes[dk] = map[int64]bool{}
			}
			for o := range hs {
				holes[dk][o] = true
			}
		}
	}
	res.Violations = tpcc.CheckConsistencyPartitioned(sys2.dbs(), cfg.Scale, holes)

	// Phase 3: the recovered set re-admits load against the same logs.
	sys2.w.MergeHoles(holes)
	sys2.w.AdvanceHistoryID(1 << 20)
	r := rand.New(rand.NewSource(cfg.Seed ^ 0x5eedca5e))
	for i := 0; i < cfg.RerunOps; i++ {
		if out, _ := sys2.w.Next(r, i%cfg.Terminals).Run(); out == metrics.Committed {
			res.RerunCompleted++
		}
	}
	sys2.logs((*wal.Log).Force)
	res.RerunViolations = tpcc.CheckConsistencyPartitioned(sys2.dbs(), cfg.Scale, sys2.w.Holes())
	return res, nil
}
