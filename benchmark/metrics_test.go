package main

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/tpcc"
	"accdb/pkg/accclient"
)

func TestPercentileKeepsTenBeyond(t *testing.T) {
	sorted := make([]time.Duration, 1000)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	for _, tc := range []struct {
		n       int
		q       float64
		want    time.Duration
		wantGot float64
	}{
		{1000, 0.50, 500, 0.5},
		{1000, 0.99, 990, 0.99},
		{500, 0.99, 490, 0.98}, // p99 would leave 5 beyond: capped
		{11, 0.50, 1, 1.0 / 11},
	} {
		v, got, ok := percentile(sorted[:tc.n], tc.q)
		if !ok || v != tc.want || got != tc.wantGot {
			t.Errorf("n=%d q=%g: got %v at %g (ok=%v), want %v at %g", tc.n, tc.q, v, got, ok, tc.want, tc.wantGot)
		}
	}
	if _, _, ok := percentile(sorted[:10], 0.5); ok {
		t.Error("10 samples cannot leave 10 beyond any rank")
	}
}

func TestFailureClass(t *testing.T) {
	rollback := &tpcc.NewOrderArgs{InvalidItem: true}
	compensated := &core.CompensatedError{Txn: "new_order", Cause: fmt.Errorf("x")}
	for _, tc := range []struct {
		args any
		err  error
		want string
	}{
		{&tpcc.PaymentArgs{}, nil, ""},
		{rollback, compensated, ""},
		{rollback, fmt.Errorf("%w: user abort", core.ErrAborted), ""},
		{rollback, nil, "unexpected-commit"},
		{&tpcc.NewOrderArgs{}, compensated, "compensated"},
		{&tpcc.PaymentArgs{}, fmt.Errorf("%w: x", core.ErrDeadlockVictim), "deadlock-victim"},
		{&tpcc.PaymentArgs{}, fmt.Errorf("%w: x", core.ErrLockTimeout), "lock-timeout"},
		{&tpcc.PaymentArgs{}, accclient.ErrQueueFull, "queue-full"},
		{&tpcc.PaymentArgs{}, fmt.Errorf("broken pipe"), "other"},
	} {
		if got := failureClass(tc.args, tc.err); got != tc.want {
			t.Errorf("failureClass(%T, %v) = %q, want %q", tc.args, tc.err, got, tc.want)
		}
	}
}

func TestResubmittable(t *testing.T) {
	rollback := &tpcc.NewOrderArgs{InvalidItem: true}
	deadlocked := &core.CompensatedError{Txn: "payment", Cause: fmt.Errorf("core: payment compensated: %w", core.ErrDeadlockVictim)}
	timedOut := &core.CompensatedError{Txn: "payment", Cause: core.ErrLockTimeout}
	other := &core.CompensatedError{Txn: "payment", Cause: fmt.Errorf("x")}
	for _, tc := range []struct {
		args any
		err  error
		want bool
	}{
		{&tpcc.PaymentArgs{}, deadlocked, true},
		{&tpcc.NewOrderArgs{}, timedOut, true},
		{rollback, deadlocked, false},
		{&tpcc.PaymentArgs{}, other, false},
		{&tpcc.PaymentArgs{}, fmt.Errorf("%w: x", core.ErrDeadlockVictim), false},
		{&tpcc.PaymentArgs{}, nil, false},
	} {
		if got := resubmittable(tc.args, tc.err); got != tc.want {
			t.Errorf("resubmittable(%T, %v) = %v, want %v", tc.args, tc.err, got, tc.want)
		}
	}
}

// Every workload runs briefly on a traced stack, drains, passes the
// consistency check and yields finite metrics.
func TestWorkloadsRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			pr := newProbe()
			st, err := buildStack(w, 1, filepath.Join(t.TempDir(), "wal"), pr)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			var before, after counters
			res := drive(st, 1, 100*time.Millisecond, 400*time.Millisecond,
				func() { before = st.read(); pr.on.Store(true) },
				func() { pr.on.Store(false); after = st.read() })
			if err := st.drain(); err != nil {
				t.Fatal(err)
			}
			if errs := st.check(); len(errs) > 0 {
				t.Fatalf("consistency: %v", errs)
			}
			if res.completed == 0 {
				t.Fatal("nothing completed")
			}
			ms, _ := layerMetrics(st, before, after, res, 0)
			for _, m := range ms {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}
		})
	}
}
