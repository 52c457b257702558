package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accdb/internal/core"
	"accdb/internal/partition"
	"accdb/internal/server"
	"accdb/internal/spi"
	"accdb/internal/trace"
	"accdb/internal/wal"
	"accdb/pkg/accclient"
)

// counters is one reading of every counter the stack's layers expose,
// summed over partitions. Per-layer metrics are differences of two
// readings taken at the edges of the measured window.
type counters struct {
	cpu      time.Duration
	steal    uint64 // machine-wide jiffies the hypervisor gave to others
	jiffies  uint64 // machine-wide jiffies of every kind
	cli      accclient.Stats
	srv      server.Stats
	core     core.Stats
	lock     spi.LockStats
	byClass  map[string]spi.ClassStats
	wal      wal.Stats
	part     partition.Stats
	stages   [trace.NumSpanStages]float64 // seconds summed over spans
	spans    float64
	runtime  [len(runtimeNames)]float64
	versions int
}

var runtimeNames = [...]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const (
	rtAllocs = iota
	rtAllocBytes
	rtGCCycles
	rtGCCPU
	rtTotalCPU
)

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the machine-wide steal and total CPU time, in jiffies,
// from /proc/stat. Steal is time a virtual CPU was ready to run while the
// hypervisor ran another tenant.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already part of user.
	for i, field := range f[1:9] {
		v, _ := strconv.ParseUint(field, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (st *stack) read() counters {
	c := counters{cpu: processCPU(), byClass: map[string]spi.ClassStats{}}
	c.steal, c.jiffies = hostCPU()
	if st.cli != nil {
		c.cli = st.cli.Stats()
	}
	if st.srv != nil {
		c.srv = st.srv.Stats()
	}
	for _, e := range st.engines {
		s := e.Snapshot()
		c.core.Commits += s.Commits
		c.core.Compensations += s.Compensations
		c.core.StepRetries += s.StepRetries
		c.core.TxnRetries += s.TxnRetries
		l := e.Locks().Stats()
		c.lock.Acquisitions += l.Acquisitions
		c.lock.Waits += l.Waits
		c.lock.WaitNanos += l.WaitNanos
		c.lock.Deadlocks += l.Deadlocks
		c.lock.VictimsForComp += l.VictimsForComp
		for k, v := range e.Locks().ByClass() {
			cs := c.byClass[k]
			cs.Waits += v.Waits
			cs.WaitNanos += v.WaitNanos
			c.byClass[k] = cs
		}
		w := e.Log().Snapshot()
		c.wal.Records += w.Records
		c.wal.Forces += w.Forces
		c.wal.Bytes += w.Bytes
		c.versions += e.Versions().ChainVersions
	}
	if st.set != nil {
		c.part = st.set.Snapshot()
	}
	if st.probe != nil {
		c.stages, c.spans = anatomyTotals(st.probe.anatomy)
	}
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c.runtime[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			c.runtime[i] = s.Value.Float64()
		}
	}
	return c
}

// anatomyTotals reads the anatomy's per-stage duration sums and its span
// count from its Prometheus rendering, the only public view of them.
func anatomyTotals(a *trace.Anatomy) (sums [trace.NumSpanStages]float64, spans float64) {
	var buf bytes.Buffer
	a.WriteMetrics(&buf)
	stage := map[string]int{}
	for i := trace.SpanStage(0); i < trace.NumSpanStages; i++ {
		stage[i.String()] = int(i)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if name, ok := strings.CutPrefix(key, `accdb_txn_stage_seconds_sum{stage="`); ok {
			if i, ok := stage[strings.TrimSuffix(name, `"}`)]; ok {
				sums[i] = v
			}
		} else if key == "accdb_txn_anatomy_finished_total" {
			spans = v
		}
	}
	return sums, spans
}

// layerMetrics computes the per-layer metrics of a traced window from the
// counter readings at its edges, the decorators' counts, and the client
// latencies. "Per txn" ratios are per completed transaction.
func layerMetrics(st *stack, before, after counters, res *loadResult, overheadPct float64) ([]metric, []string) {
	var (
		out   []metric
		notes []string
		pr    = st.probe
		txns  = float64(max(res.completed, 1))
		add   = func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
		ratio = func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		stageUS = func(s trace.SpanStage) float64 {
			return ratio(after.stages[s]-before.stages[s], after.spans-before.spans) * 1e6
		}
	)

	var rttSum time.Duration
	var rttN int
	for _, l := range res.lat {
		for _, d := range l {
			rttSum += d
		}
		rttN += len(l)
	}
	rttUS := ratio(float64(rttSum.Microseconds()), float64(rttN))
	var runNanos, runCalls float64
	for i := range txnTypes {
		runNanos += float64(pr.runner.nanos[i].Load())
		runCalls += float64(pr.runner.calls[i].Load())
	}
	runUS := ratio(runNanos, runCalls) / 1e3

	add("accclient.retries_per_ktxn", "1/ktxn", float64(after.cli.Retries-before.cli.Retries)/txns*1000)
	add("accclient.transport_errors", "count", float64(after.cli.TransportErrors-before.cli.TransportErrors))
	add("accclient.rtt_us_mean", "us", rttUS)
	add("terminal.resubmits_per_ktxn", "1/ktxn", float64(res.resubmits)/txns*1000)

	add("server.overhead_us_mean", "us", rttUS-runUS)
	add("server.stage.queue_us_mean", "us", stageUS(trace.StageQueue))
	add("server.stage.decode_us_mean", "us", stageUS(trace.StageDecode))
	add("server.stage.encode_us_mean", "us", stageUS(trace.StageEncode))
	add("server.stage.flush_us_mean", "us", stageUS(trace.StageFlush))
	add("server.rejected_full", "count", float64(after.srv.RejectedFull-before.srv.RejectedFull))

	for i, name := range txnTypes {
		add("core.run_us_mean."+name, "us", ratio(float64(pr.runner.nanos[i].Load()), float64(pr.runner.calls[i].Load()))/1e3)
	}
	// Pruning runs on the engine's background reaper, outside every
	// transaction, so it is not part of the Runner time.
	var storeNanos float64
	for op := storeOp(0); op < opPrune; op++ {
		storeNanos += float64(pr.store.nanos[op].Load())
	}
	add("core.self_us_mean", "us", ratio(runNanos-storeNanos, runCalls)/1e3)
	add("core.stage.exec_us_mean", "us", stageUS(trace.StageExec))
	commits := float64(after.core.Commits - before.core.Commits)
	stepRetries := float64(after.core.StepRetries - before.core.StepRetries)
	txnRetries := float64(after.core.TxnRetries - before.core.TxnRetries)
	add("core.step_retries_per_ktxn", "1/ktxn", stepRetries/txns*1000)
	add("core.txn_retries_per_ktxn", "1/ktxn", txnRetries/txns*1000)
	add("core.compensations_per_ktxn", "1/ktxn", float64(after.core.Compensations-before.core.Compensations)/txns*1000)
	add("core.useful_ratio", "ratio", ratio(commits, commits+stepRetries+txnRetries))

	add("lock.acquisitions_per_txn", "1/txn", float64(after.lock.Acquisitions-before.lock.Acquisitions)/txns)
	add("lock.waits_per_txn", "1/txn", float64(after.lock.Waits-before.lock.Waits)/txns)
	add("lock.wait_ms_per_txn", "ms", float64(after.lock.WaitNanos-before.lock.WaitNanos)/txns/1e6)
	add("lock.deadlocks_per_ktxn", "1/ktxn", float64(after.lock.Deadlocks-before.lock.Deadlocks)/txns*1000)
	add("lock.victims_for_comp", "count", float64(after.lock.VictimsForComp-before.lock.VictimsForComp))
	hot, share := hottestClass(before.byClass, after.byClass)
	add("lock.hot_class_wait_share", "ratio", share)
	notes = append(notes, fmt.Sprintf("lock.hot_class_wait_share: hottest class %q", hot))
	add("lock.stage.conv_us_mean", "us", stageUS(trace.StageLockConv))
	add("lock.stage.a_us_mean", "us", stageUS(trace.StageLockA))
	add("lock.stage.d_us_mean", "us", stageUS(trace.StageLockD))
	add("lock.stage.c_us_mean", "us", stageUS(trace.StageLockC))

	add("wal.records_per_txn", "1/txn", float64(after.wal.Records-before.wal.Records)/txns)
	add("wal.forces_per_txn", "1/txn", float64(after.wal.Forces-before.wal.Forces)/txns)
	add("wal.bytes_per_txn", "B/txn", float64(after.wal.Bytes-before.wal.Bytes)/txns)
	add("wal.stage.append_us_mean", "us", stageUS(trace.StageWALAppend))
	add("wal.stage.group_commit_us_mean", "us", stageUS(trace.StageGroupCommit))

	for op := storeOp(0); op < opPrune; op++ {
		calls := float64(pr.store.calls[op].Load())
		add("storage.calls_per_txn."+storeOpNames[op], "1/txn", calls/txns)
		add("storage.ns_per_call."+storeOpNames[op], "ns", ratio(float64(pr.store.nanos[op].Load()), calls))
	}
	add("storage.rows_per_scan", "rows", ratio(float64(pr.store.rows.Load()), float64(pr.store.scans.Load())))
	add("storage.prune_ms_total", "ms", float64(pr.store.nanos[opPrune].Load())/1e6)
	add("storage.versions_live", "count", float64(after.versions))

	crossStarted := float64(after.part.CrossStarted - before.part.CrossStarted)
	single := float64(after.part.SingleRouted - before.part.SingleRouted)
	add("partition.cross_ratio", "ratio", ratio(crossStarted, crossStarted+single))
	add("partition.shots_per_cross", "1/cross", ratio(float64(after.part.ShotsRun-before.part.ShotsRun), crossStarted))
	add("partition.undos_per_cross", "1/cross", ratio(float64(after.part.ShotUndos-before.part.ShotUndos), crossStarted))
	add("partition.cross_aborted_ratio", "ratio", ratio(float64(after.part.CrossAborted-before.part.CrossAborted), crossStarted))
	add("partition.cross_deadlocks", "count", float64(after.part.CrossDeadlocks-before.part.CrossDeadlocks))
	pr.runner.mu.Lock()
	crossP50, _ := median(pr.runner.cross)
	singleP50, _ := median(pr.runner.single)
	notes = append(notes, fmt.Sprintf("partition run samples: cross=%d single=%d", len(pr.runner.cross), len(pr.runner.single)))
	pr.runner.mu.Unlock()
	add("partition.cross_run_ms_p50", "ms", toMS(crossP50))
	add("partition.single_run_ms_p50", "ms", toMS(singleP50))

	rt := func(i int) float64 { return after.runtime[i] - before.runtime[i] }
	add("go.allocs_per_txn", "1/txn", rt(rtAllocs)/txns)
	add("go.alloc_bytes_per_txn", "B/txn", rt(rtAllocBytes)/txns)
	add("go.gc_cycles_per_ktxn", "1/ktxn", rt(rtGCCycles)/txns*1000)
	add("go.gc_cpu_fraction", "ratio", ratio(rt(rtGCCPU), rt(rtTotalCPU)))

	add("trace.overhead_pct", "%", overheadPct)
	return out, notes
}

// hottestClass names the lock class with the most wait time in the window
// and its share of all wait time.
func hottestClass(before, after map[string]spi.ClassStats) (string, float64) {
	names := make([]string, 0, len(after))
	for k := range after {
		names = append(names, k)
	}
	sort.Strings(names)
	var total, top uint64
	hot := "none"
	for _, k := range names {
		d := after[k].WaitNanos - before[k].WaitNanos
		total += d
		if d > top {
			top, hot = d, k
		}
	}
	if total == 0 {
		return hot, 0
	}
	return hot, float64(top) / float64(total)
}
