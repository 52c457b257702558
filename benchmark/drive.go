package main

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"

	"accdb/internal/core"
	"accdb/internal/server/wire"
	"accdb/internal/tpcc"
	"accdb/pkg/accclient"
)

// maxResubmits bounds how often a terminal resubmits one transaction that
// the engine rolled back by compensation after a recurring deadlock or a
// lock timeout. A transaction still rolled back after that counts as failed.
const maxResubmits = 8

// loadResult is what the terminals observed in the measured window: every
// transaction that ended inside it, by type.
type loadResult struct {
	window    time.Duration
	lat       [numTxnTypes][]time.Duration // completed transactions only
	completed int64
	failed    int64
	// resubmits counts the transactions a terminal sent again after an
	// unrequested compensation (see resubmittable).
	resubmits int64
	failures  map[string]int64  // failure class → count
	example   map[string]string // failure class → one error message
}

func (r *loadResult) attempted() int64 { return r.completed + r.failed }

// terminalLog is one terminal's share of a loadResult, merged after the
// terminals stop so the hot loop shares nothing.
type terminalLog struct {
	lat       [numTxnTypes][]time.Duration
	completed int64
	failed    int64
	resubmits int64
	failures  map[string]int64
	example   map[string]string
}

// drive runs the closed loop: w.terminals goroutines, each sending its next
// transaction as soon as the previous reply arrives, with zero think time.
// Nothing is recorded during warmup; the measured window is the following
// measure interval, and it holds every transaction that ended inside it.
// atStart and atEnd run on the caller's goroutine at the window's edges.
func drive(st *stack, seed int64, warmup, measure time.Duration, atStart, atEnd func()) *loadResult {
	w := st.w
	gen := tpcc.NewRemoteWorkload(nil, w.workloadConfig())
	begin := time.Now()
	t0 := begin.Add(warmup)
	t1 := t0.Add(measure)
	logs := make([]terminalLog, w.terminals)
	var wg sync.WaitGroup
	for term := 0; term < w.terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			runTerminal(st.cli, gen, w.readTier, rand.New(rand.NewSource(seed<<16+int64(term))), term, t0, t1, &logs[term])
		}(term)
	}
	time.Sleep(time.Until(t0))
	atStart()
	time.Sleep(time.Until(t1))
	atEnd()
	wg.Wait()

	res := &loadResult{window: measure, failures: map[string]int64{}, example: map[string]string{}}
	for i := range logs {
		l := &logs[i]
		for t := range l.lat {
			res.lat[t] = append(res.lat[t], l.lat[t]...)
		}
		res.completed += l.completed
		res.failed += l.failed
		res.resubmits += l.resubmits
		for k, n := range l.failures {
			res.failures[k] += n
			res.example[k] = l.example[k]
		}
	}
	return res
}

func runTerminal(cli *accclient.Client, gen *tpcc.Workload, tier core.ReadTier, r *rand.Rand, term int, t0, t1 time.Time, log *terminalLog) {
	ctx := context.Background()
	var inputs []byte
	for {
		name, args := gen.DrawArgs(r, term)
		start := time.Now()
		if !start.Before(t1) {
			return
		}
		// The inputs as drawn, so that a resubmission sends them again
		// rather than the work area the rolled-back attempt filled in.
		codec := wire.CodecFor(name)
		if codec != nil && codec.Handles(args) {
			inputs = codec.Encode(inputs[:0], args)
		} else {
			codec = nil
		}
		var err error
		attempt := 0
		for ; ; attempt++ {
			if tier != core.TierLocked && (name == "order_status" || name == "stock_level") {
				err = cli.RunTier(ctx, name, args, tier)
			} else {
				err = cli.Run(ctx, name, args)
			}
			if codec == nil || attempt == maxResubmits || !resubmittable(args, err) {
				break
			}
			if derr := codec.Decode(inputs, args); derr != nil {
				err = errors.Join(err, derr)
				break
			}
		}
		end := time.Now()
		if end.Before(t0) || !end.Before(t1) {
			continue
		}
		log.resubmits += int64(attempt)
		if class := failureClass(args, err); class != "" {
			log.failed++
			if log.failures == nil {
				log.failures = map[string]int64{}
				log.example = map[string]string{}
			}
			log.failures[class]++
			if err != nil {
				log.example[class] = err.Error()
			}
			continue
		}
		log.completed++
		i := txnIndex(name)
		log.lat[i] = append(log.lat[i], end.Sub(start))
	}
}

// resubmittable reports whether a terminal sends a transaction again: the
// engine rolled it back by compensation although nobody asked for a
// rollback, because a step lost a deadlock again after its one restart or
// timed out waiting for a lock. The client's retry policy never replays a
// compensated transaction, since the rollback consumed identifiers such as
// an order number; a TPC-C terminal resubmits it, and the resubmission
// draws fresh identifiers. The latency of the transaction runs from its
// first submission to its last reply. Compensations with any other cause
// are not resubmitted.
func resubmittable(args any, err error) bool {
	if !core.IsCompensated(err) || failureClass(args, err) == "" {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, core.ErrDeadlockVictim.Error()) || strings.Contains(msg, core.ErrLockTimeout.Error())
}

// failureClass classifies one outcome after the client's retry policy. A
// transaction completes when it commits, or when it is a new-order the
// generator asked to roll back (an unused item number, or a failing final
// step) and it rolled back. Every other outcome is a failure, including a
// deadlock victim, a lock timeout, a queue-full refusal and a compensation
// nobody asked for.
func failureClass(args any, err error) string {
	wantRollback := false
	if a, ok := args.(*tpcc.NewOrderArgs); ok {
		wantRollback = a.InvalidItem || a.FailFinal
	}
	rolledBack := err != nil && (core.IsCompensated(err) || errors.Is(err, core.ErrAborted))
	switch {
	case err == nil && !wantRollback:
		return ""
	case wantRollback && rolledBack:
		return ""
	case err == nil:
		return "unexpected-commit"
	case core.IsCompensated(err):
		return "compensated"
	case errors.Is(err, core.ErrDeadlockVictim):
		return "deadlock-victim"
	case errors.Is(err, core.ErrLockTimeout):
		return "lock-timeout"
	case errors.Is(err, accclient.ErrQueueFull):
		return "queue-full"
	case errors.Is(err, accclient.ErrBadRequest):
		return "bad-request"
	case errors.Is(err, core.ErrAborted):
		return "aborted"
	default:
		return "other"
	}
}
