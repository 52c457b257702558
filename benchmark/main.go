// Command benchmark is the repository's benchmark. It runs one named TPC-C
// workload against the real server stack — server.New over a core.Engine or
// a partition.Set, composed as cmd/accd composes it, driven by a closed loop
// of terminals through one pkg/accclient pool on a loopback listener — and
// verifies the TPC-C consistency constraint after every run.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics. With --trace 1 it holds the per-layer metrics of a
// run with the benchmark's own decorators and the latency anatomy enabled,
// plus the tracing overhead against an untraced run of the same seed.
// README.md lists the workloads, the metrics, and what each layer metric
// should move. run.sh builds and runs it.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

const (
	// trials is how many fresh stacks an untraced run measures, each for an
	// equal share of --seconds. Throughput and CPU per transaction are
	// medians over the trials, which damps a transient stall; latency
	// percentiles pool every trial's transactions. Fresh stacks also bound
	// how far the in-memory log and the order tables grow, and with them
	// the process's memory.
	trials = 4
	// setupsPerTrial is how many times a trial sets its stack up; setup_s is
	// the median over the set-ups of the reported trials.
	setupsPerTrial = 3
	// maxSteal is the share of the machine's CPU time that the hypervisor
	// may give to other tenants during a trial before the trial counts as
	// disturbed. On a shared host, throughput fell by a quarter in trials
	// that lost 25% to steal.
	maxSteal = 0.05
	// maxTrials bounds the trials of one run, disturbed ones included.
	maxTrials = 6
	// warmup precedes the measured window on every run.
	warmup = time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the database load and the transaction inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload <name> --seconds >=1 --trace 0|1; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	scratch, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	env := newEnvRecord(w, *seed, *seconds, *traced, scratch)
	if b, err := json.Marshal(env); err == nil {
		fmt.Printf("env %s\n", b)
	}
	measure := time.Duration(*seconds) * time.Second
	var out *outcome
	if *traced == 0 {
		out, err = untracedRun(w, *seed, measure, scratch)
	} else {
		out, err = tracedRun(w, *seed, measure, scratch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return out.print()
}

// outcome is what one invocation reports.
type outcome struct {
	correct    bool
	violations []error
	attempted  int64
	failed     int64
	resubmits  int64
	metrics    []metric
	notes      []string
}

func (o *outcome) add(res *loadResult) {
	o.attempted += res.attempted()
	o.failed += res.failed
	o.resubmits += res.resubmits
	for class, n := range res.failures {
		o.notes = append(o.notes, fmt.Sprintf("failures %s: %d (e.g. %s)", class, n, res.example[class]))
	}
}

// check records the consistency verdict of one drained stack.
func (o *outcome) check(st *stack) {
	if errs := st.check(); len(errs) > 0 {
		o.correct = false
		o.violations = append(o.violations, errs...)
	}
}

// print writes the report and the result line, and returns the exit code:
// a consistency violation fails the invocation and reports no numbers.
func (o *outcome) print() int {
	fmt.Printf("note resubmitted after an unrequested compensation: %d of %d attempted\n", o.resubmits, o.attempted)
	for _, n := range o.notes {
		fmt.Println("note", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, map[string]value{}}
	if o.correct {
		for _, m := range o.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				fmt.Fprintf(os.Stderr, "benchmark: %s is not a number\n", m.name)
				return 1
			}
			fmt.Printf("metric %-40s %14.4f %s\n", m.name, m.value, m.unit)
			result.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	for _, v := range o.violations {
		fmt.Fprintln(os.Stderr, "benchmark: consistency violation:", v)
	}
	b, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	if !o.correct {
		return 1
	}
	return 0
}

// untracedRun measures trials windows, each on a fresh stack and each an
// equal share of measure, and reports the end-to-end metrics. Every trial
// sets its stack up setupsPerTrial times and measures on the last set-up.
// While fewer than trials windows lost at most maxSteal of the machine to
// other tenants, it measures more, up to maxTrials, and reports the trials
// that lost the least.
func untracedRun(w workload, seed int64, measure time.Duration, scratch string) (*outcome, error) {
	out := &outcome{correct: true}
	var measured []trial
	quiet := 0
	for t := 0; t < trials || (quiet < trials && t < maxTrials); t++ {
		var st *stack
		var setups []time.Duration
		for i := 0; i < setupsPerTrial; i++ {
			if st != nil {
				if err := st.close(); err != nil {
					return nil, err
				}
			}
			// Every set-up starts from a collected heap returned to the
			// operating system, as a freshly started process does.
			debug.FreeOSMemory()
			start := time.Now()
			var err error
			if st, err = buildStack(w, seed, filepath.Join(scratch, fmt.Sprintf("wal-%d-%d", t, i)), nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(start))
		}
		tr, err := measureWindow(st, seed<<8+int64(t), measure/trials)
		if err == nil {
			// Every trial counts towards attempted and failed and is
			// checked for consistency, whether or not its numbers are kept.
			out.add(tr.res)
			out.check(st)
			tr.setups = setups
			measured = append(measured, tr)
			if tr.steal <= maxSteal {
				quiet++
			}
		}
		if err = errors.Join(err, st.close()); err != nil {
			return nil, err
		}
	}
	if !out.correct {
		return out, nil
	}
	steal := make([]float64, len(measured))
	for i, t := range measured {
		steal[i] = t.steal
	}
	out.notes = append(out.notes, fmt.Sprintf("steal share per trial: %.4f", steal))
	slices.SortStableFunc(measured, func(a, b trial) int { return cmp.Compare(a.steal, b.steal) })
	var err error
	var notes []string
	out.metrics, notes, err = endToEnd(measured[:trials])
	out.notes = append(out.notes, notes...)
	return out, err
}

// measureWindow drives the stack's workload for one window, drains the
// stack and returns what the terminals saw and the process CPU time the
// window used.
func measureWindow(st *stack, stream int64, measure time.Duration) (trial, error) {
	var before, after counters
	res := drive(st, stream, warmup, measure,
		func() { before = st.read() },
		func() { after = st.read() })
	t := trial{res: res, cpu: after.cpu - before.cpu}
	if after.jiffies > before.jiffies {
		t.steal = float64(after.steal-before.steal) / float64(after.jiffies-before.jiffies)
	}
	return t, st.drain()
}

// tracedRun measures an untraced window and then a traced one, each half
// as long as an untraced run's, on fresh stacks of the same seed. It
// reports the traced window's per-layer metrics with the throughput
// difference as the tracing overhead.
func tracedRun(w workload, seed int64, measure time.Duration, scratch string) (*outcome, error) {
	out := &outcome{correct: true}
	measure /= 2

	st, err := buildStack(w, seed, filepath.Join(scratch, "wal-untraced"), nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	untraced, err := measureWindow(st, seed, measure)
	plain := untraced.res
	if err == nil {
		out.add(plain)
		out.check(st)
	}
	if err = errors.Join(err, st.close()); err != nil {
		return nil, err
	}
	runtime.GC()

	pr := newProbe()
	if st, err = buildStack(w, seed, filepath.Join(scratch, "wal-traced"), pr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var before, after counters
	res := drive(st, seed, warmup, measure,
		func() { before = st.read(); pr.on.Store(true) },
		func() { pr.on.Store(false); after = st.read() })
	err = st.drain()
	if err == nil {
		out.add(res)
		out.check(st)
		plainTPS := float64(plain.completed) / plain.window.Seconds()
		tracedTPS := float64(res.completed) / res.window.Seconds()
		overhead := 0.0
		if plainTPS > 0 {
			overhead = (plainTPS - tracedTPS) / plainTPS * 100
		}
		var notes []string
		out.metrics, notes = layerMetrics(st, before, after, res, overhead)
		out.notes = append(out.notes, notes...)
		out.notes = append(out.notes, fmt.Sprintf("trace.overhead_pct: untraced %.1f txn/s, traced %.1f txn/s", plainTPS, tracedTPS))
	}
	return out, errors.Join(err, st.close())
}
