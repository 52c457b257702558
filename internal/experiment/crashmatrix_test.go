package experiment

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"accdb/internal/fault"
)

// crashFamilies assigns every fault point, by name prefix, the partition
// count its crash-matrix case runs at. Generic points run on the
// single-engine (one-partition) set in TestCrashMatrix; the coordinator
// points only fire when transactions span partitions, so they run on four
// with a 25% remote share in TestPartitionCrashMatrix. A point outside every
// family fails TestCrashMatrix rather than going untested.
var crashFamilies = []struct {
	prefix     string
	partitions int
}{
	{"core.", 1},
	{"wal.", 1},
	{"partition.", 4},
}

func crashPartitions(point string) (int, bool) {
	for _, f := range crashFamilies {
		if strings.HasPrefix(point, f.prefix) {
			return f.partitions, true
		}
	}
	return 0, false
}

// TestCrashMatrix is the recovery acceptance test: for every generic fault
// injection point, crash a one-partition TPC-C run there, recover, and
// require the full consistency battery on the recovered state — and again
// after the recovered set re-runs load. It also checks that every
// registered point belongs to a family, so every point is run by this test
// or by TestPartitionCrashMatrix.
func TestCrashMatrix(t *testing.T) {
	points := fault.Points()
	if len(points) < 10 {
		t.Fatalf("expected the full fault-point catalog, found %d: %v", len(points), points)
	}
	for _, p := range points {
		if _, ok := crashPartitions(p.Name); !ok {
			t.Errorf("fault point %s belongs to no crash-matrix family: no case runs it", p.Name)
		}
	}
	if n := runCrashFamily(t, 1); n == 0 {
		t.Fatal("no fault point runs at one partition")
	}
}

// TestPartitionCrashMatrix is the coordinator acceptance test: for every
// partition.coord.* fault point — crash after the decision record, between
// shots, after the home commit, mid-compensation — crash a four-partition
// TPC-C run with a 25% remote-warehouse share, recover every partition plus
// the coordinator's decision records, and require the full consistency
// battery (including the cross-partition stock condition) on the recovered
// state and again after re-admitted load.
func TestPartitionCrashMatrix(t *testing.T) {
	if n := runCrashFamily(t, 4); n != 4 {
		t.Fatalf("expected the 4 coordinator fault points at four partitions, found %d", n)
	}
}

// runCrashFamily runs, one subtest per point, every registered fault point
// whose family runs at n partitions, and returns how many it ran.
func runCrashFamily(t *testing.T, n int) int {
	t.Helper()
	ran := 0
	for _, p := range fault.Points() {
		if m, ok := crashPartitions(p.Name); !ok || m != n {
			continue
		}
		ran++
		t.Run(p.Name, func(t *testing.T) {
			runCrashCase(t, CrashConfig{Point: p, Seed: 42, Partitions: n, WALDir: t.TempDir()})
		})
	}
	return ran
}

// TestPartitionCrashGenericPoint runs one non-coordinator point on four
// partitions: a plain commit-force crash on one partition's log must recover
// just as well when the workload spans partitions.
func TestPartitionCrashGenericPoint(t *testing.T) {
	runCrashCase(t, CrashConfig{
		Point:      fault.Info{Name: "core.commit.force.crash", Effect: fault.Crash},
		Seed:       7,
		Partitions: 4,
		WALDir:     t.TempDir(),
	})
}

// runCrashCase runs one case and requires that its point fired, that the
// recovered state and the state after re-run are consistent, that the
// recovered set kept committing, and that closing both systems left no
// goroutine behind.
func runCrashCase(t *testing.T, cfg CrashConfig) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	res, err := RunCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fired {
		t.Fatalf("point %s never fired within the op budget", cfg.Point.Name)
	}
	for i, v := range res.Violations {
		if i > 5 {
			t.Fatalf("... and %d more", len(res.Violations)-i)
		}
		t.Errorf("recovered state: %v", v)
	}
	for i, v := range res.RerunViolations {
		if i > 5 {
			t.Fatalf("... and %d more", len(res.RerunViolations)-i)
		}
		t.Errorf("after re-run: %v", v)
	}
	if res.RerunCompleted == 0 {
		t.Error("recovered set completed no transactions")
	}
	t.Logf("committed=%d compensated=%d forward=%d undone=%d torn=%v rerun=%d",
		res.Committed, res.Compensated, res.ForwardDriven, res.Undone, res.TornTail, res.RerunCompleted)
	// Goroutines wind down asynchronously after Close; poll briefly.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d running after close, %d before the case\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashMatrixDeterministic replays one case twice and requires identical
// recovery outcomes — the property that makes a failing matrix case
// debuggable from its (point, seed, nth) triple.
func TestCrashMatrixDeterministic(t *testing.T) {
	run := func() *CrashResult {
		res, err := RunCrash(CrashConfig{
			Point:  fault.Info{Name: "core.commit.force.crash", Effect: fault.Crash},
			Seed:   7,
			Nth:    2,
			WALDir: t.TempDir(),
			// One terminal: scheduling nondeterminism off, so the doomed
			// run's log — and hence recovery — is bit-reproducible.
			Terminals: 1,
			RerunOps:  50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.Fired || !b.Fired {
		t.Fatalf("point did not fire: %v %v", a.Fired, b.Fired)
	}
	if a.Committed != b.Committed || a.Compensated != b.Compensated {
		t.Fatalf("same (point, seed, nth) diverged: %+v vs %+v", a, b)
	}
}
