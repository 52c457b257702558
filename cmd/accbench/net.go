package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"accdb/internal/core"
	"accdb/internal/sim"
	"accdb/internal/tpcc"
	"accdb/pkg/accclient"
)

// runNet drives the TPC-C closed loop against a remote accd instead of an
// in-process engine: each terminal's transactions go through a shared
// accclient pool, so the measured path includes the wire protocol,
// admission control, and the client's retry policy. The server owns the
// database, so no consistency check runs here — accd verifies it at drain.
func runNet(addr string, terminals, pool int, duration, warmup, think time.Duration, seed int64, tier core.ReadTier, warehouses, remotePct int, readHeavy, verbose bool) error {
	cli, err := accclient.Dial(addr, accclient.WithPoolSize(pool))
	if err != nil {
		return err
	}
	defer cli.Close()

	scale := tpcc.DefaultScale()
	if warehouses > scale.Warehouses {
		// Must match the server: a partitioned accd widens its warehouse
		// count to its partition count, and the generated WIDs have to cover
		// it for any transaction to leave partition 0.
		scale.Warehouses = warehouses
	}
	cfg := tpcc.DefaultWorkloadConfig(scale)
	cfg.RemotePercent = remotePct
	cfg.ReadTier = tier
	if readHeavy {
		cfg.Mix = tpcc.ReadHeavyMix()
	}
	w := tpcc.NewRemoteWorkload(func(name string, args any) error {
		return cli.Run(context.Background(), name, args)
	}, cfg)
	w.SetReadRunner(func(name string, args any, t core.ReadTier) error {
		return cli.RunTier(context.Background(), name, args, t)
	})
	// Every generator starts payment history IDs at the same base, so two
	// against one server would insert duplicate history keys. The pid gives
	// each live process its own 2^40-wide range.
	w.AdvanceHistoryID(int64(os.Getpid()) << 40)

	fmt.Printf("== network TPC-C against %s: %d terminals, pool %d, read tier %s ==\n", addr, terminals, pool, tier)
	res := sim.Run(sim.Config{
		Terminals: terminals,
		Duration:  duration,
		Warmup:    warmup,
		ThinkTime: think,
		Seed:      seed,
	}, w)

	total := res.Recorder.Total()
	fmt.Printf("throughput %.1f txn/s  %s\n", res.Throughput(), total)
	fmt.Printf("failed %d txns (errors=%d deadlocks=%d timeouts=%d)\n",
		total.Errors+total.Deadlocks+total.Timeouts, total.Errors, total.Deadlocks, total.Timeouts)
	st := cli.Stats()
	fmt.Printf("client: requests=%d attempts=%d retries=%d transport_errors=%d\n",
		st.Requests, st.Attempts, st.Retries, st.TransportErrors)
	if verbose {
		byType := res.Recorder.ByType()
		names := make([]string, 0, len(byType))
		for name := range byType {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-12s %s\n", name, byType[name])
		}
	}
	return nil
}
