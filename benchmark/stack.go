package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/partition"
	"accdb/internal/server"
	"accdb/internal/spi"
	"accdb/internal/tpcc"
	"accdb/internal/trace"
	"accdb/internal/wal"
	"accdb/pkg/accclient"

	_ "accdb/internal/backends"
)

const (
	// backend is pinned: ACCDB_BACKEND is never consulted.
	backend = "btree"
	// poolSize is the accclient connection count; the terminals are
	// multiplexed over it.
	poolSize = 2
	// groupWindow is the durable workload's group-commit window.
	groupWindow = time.Millisecond
	// waitTimeout is accd's default lock-wait safety net.
	waitTimeout = 10 * time.Second
)

// probe holds the decorators' counters of a traced run. They count only
// while on is set, which the driver sets for the measured window.
type probe struct {
	on      atomic.Bool
	store   storeStats
	runner  *timedRunner
	anatomy *trace.Anatomy
}

func newProbe() *probe {
	p := &probe{anatomy: trace.NewAnatomy(trace.AnatomyConfig{})}
	p.store.on = &p.on
	return p
}

// stack is the server stack of one run, composed the way cmd/accd composes
// it: TPC-C loaded into one engine or a partition.Set, served by
// server.New on a loopback listener, driven through one accclient pool.
type stack struct {
	w       workload
	scale   tpcc.Scale
	engines []*core.Engine
	set     *partition.Set // nil for a single engine
	runner  server.Runner
	logs    []*wal.Log
	walDir  string
	holes   *tpcc.HoleTracker
	srv     *server.Server
	served  chan error
	cli     *accclient.Client
	probe   *probe // nil when untraced
}

// buildStack sets up a fresh stack. walDir is used by durable workloads
// only and must not exist yet. A non-nil probe installs the decorators and
// the latency anatomy.
func buildStack(w workload, seed int64, walDir string, pr *probe) (st *stack, err error) {
	st = &stack{w: w, scale: w.scale(), holes: tpcc.NewHoleTracker(), probe: pr}
	if w.durable {
		st.walDir = walDir
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
			st = nil
		}
	}()

	build := func(p int) (*core.Engine, error) {
		store, err := spi.OpenStore(backend)
		if err != nil {
			return nil, err
		}
		if pr != nil {
			store = newTimedStore(store, &pr.store)
		}
		db := core.NewDB(core.WithStore(store))
		if err := tpcc.CreateSchema(db); err != nil {
			return nil, err
		}
		if err := tpcc.LoadPartition(db, st.scale, seed, p, w.partitions); err != nil {
			return nil, err
		}
		opts := []core.Option{
			core.WithMode(core.ModeACC),
			core.WithWaitTimeout(waitTimeout),
		}
		if w.durable {
			dlog, err := wal.Open(filepath.Join(walDir, fmt.Sprintf("p%d", p)), wal.Options{GroupWindow: groupWindow})
			if err != nil {
				return nil, err
			}
			st.logs = append(st.logs, dlog)
			opts = append(opts, core.WithWAL(dlog))
		}
		if w.partitions > 1 {
			opts = append(opts, core.WithEngineLabel(fmt.Sprintf("partition %d", p)))
		}
		types := tpcc.BuildTypes()
		eng := core.New(db, types.Tables, opts...)
		st.engines = append(st.engines, eng)
		if _, err := tpcc.RegisterPartitioned(eng, types, st.scale, w.partitions); err != nil {
			return nil, err
		}
		return eng, nil
	}

	if w.partitions > 1 {
		if st.set, err = partition.New(w.partitions, build); err != nil {
			return st, err
		}
		tpcc.InstallRoutes(st.set)
		st.runner = st.set
	} else {
		eng, err := build(0)
		if err != nil {
			return st, err
		}
		st.runner = eng
	}

	cfg := server.Config{
		Engine:      st.runner,
		NewArgs:     newArgs(),
		MaxInFlight: server.DefaultMaxInFlight,
		OnOutcome:   st.holes.Observe,
	}
	if pr != nil {
		pr.runner = &timedRunner{Runner: st.runner, partitions: w.partitions, on: &pr.on}
		cfg.Engine = pr.runner
		cfg.Anatomy = pr.anatomy
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.srv = server.New(cfg)
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.cli, err = accclient.Dial(ln.Addr().String(), accclient.WithPoolSize(poolSize))
	return st, err
}

func newArgs() func(string) any {
	protos := tpcc.ArgsPrototypes()
	return func(name string) any {
		if f, ok := protos[name]; ok {
			return f()
		}
		return nil
	}
}

// check verifies the TPC-C consistency constraint over the drained stack,
// with the compensated order holes the server observed.
func (st *stack) check() []error {
	if st.set != nil {
		dbs := make([]*core.DB, len(st.engines))
		for i, e := range st.engines {
			dbs[i] = e.DB()
		}
		return tpcc.CheckConsistencyPartitioned(dbs, st.scale, st.holes.Holes())
	}
	return tpcc.CheckConsistency(st.engines[0].DB(), st.scale, st.holes.Holes())
}

// drain closes the client and drains the server, which closes the engines
// and forces their logs. The stack is quiescent afterwards.
func (st *stack) drain() error {
	var errs []error
	if st.cli != nil {
		errs = append(errs, st.cli.Close())
		st.cli = nil
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, st.srv.Shutdown(ctx))
		cancel()
		errs = append(errs, <-st.served)
		st.srv = nil
	}
	if st.set != nil {
		errs = append(errs, st.set.Close())
	}
	for _, e := range st.engines {
		errs = append(errs, e.Close())
	}
	return errors.Join(errs...)
}

// close drains the stack, then closes its logs and removes its WAL
// directory.
func (st *stack) close() error {
	errs := []error{st.drain()}
	for _, l := range st.logs {
		errs = append(errs, l.Close())
	}
	st.logs = nil
	if st.walDir != "" {
		errs = append(errs, os.RemoveAll(st.walDir))
	}
	return errors.Join(errs...)
}
