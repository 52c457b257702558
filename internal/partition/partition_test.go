package partition_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/fault"
	"accdb/internal/interference"
	"accdb/internal/partition"
	"accdb/internal/spi"
	"accdb/internal/tpcc"
	"accdb/internal/wal"

	_ "accdb/internal/backends" // default storage backends
)

// buildTPCCSet assembles a partitioned TPC-C system through tpcc.NewSet:
// one engine per partition, each loaded with its own warehouses (plus the
// replicated item table) and, when walBase is non-empty, its own
// disk-backed log under walBase/p<N>.
func buildTPCCSet(t testing.TB, parts int, scale tpcc.Scale, seed int64, walBase string, opts ...partition.Option) *partition.Set {
	t.Helper()
	set, err := tpcc.NewSet(parts, scale, seed, func(p int) ([]core.Option, error) {
		eopts := []core.Option{core.WithMode(core.ModeACC), core.WithWaitTimeout(10 * time.Second)}
		if walBase != "" {
			l, err := wal.Open(filepath.Join(walBase, fmt.Sprintf("p%d", p)), wal.Options{})
			if err != nil {
				return nil, err
			}
			eopts = append(eopts, core.WithWAL(l))
		}
		return eopts, nil
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func partitionDBs(set *partition.Set) []*core.DB {
	dbs := make([]*core.DB, set.Partitions())
	for p := range dbs {
		dbs[p] = set.Engine(p).DB()
	}
	return dbs
}

func smallScale(warehouses int) tpcc.Scale {
	return tpcc.Scale{
		Warehouses: warehouses, Districts: 2, CustomersPerDistrict: 10,
		Items: 40, InitialOrdersPerDistrict: 10, NewOrderBacklog: 4,
	}
}

// stockYTD reads s_ytd of one stock row straight from a partition's store.
func stockYTD(t *testing.T, set *partition.Set, part int, w, item int64) int64 {
	t.Helper()
	st := set.Engine(part).DB().Store().Table(tpcc.TStock)
	row, err := st.Get(spi.EncodeKey(spi.I64(w), spi.I64(item)))
	if err != nil {
		t.Fatalf("stock (%d,%d) on partition %d: %v", w, item, part, err)
	}
	return row[st.Schema().MustCol("s_ytd")].Int64()
}

func newOrderArgs(w int64, lines ...tpcc.OrderLineReq) *tpcc.NewOrderArgs {
	return &tpcc.NewOrderArgs{
		WID: w, DID: 1, CID: 1, Lines: lines,
		Filled:  make([]int64, len(lines)),
		Amounts: make([]int64, len(lines)),
	}
}

// TestSinglePartitionFastPath: a transaction whose footprint stays on its
// home partition routes straight to that engine — no decision record, no
// coordinator state, just the counter.
func TestSinglePartitionFastPath(t *testing.T) {
	scale := smallScale(2)
	set := buildTPCCSet(t, 2, scale, 1, "")
	defer set.Close()

	// Home-only new-order on warehouse 2 (partition 1) and a payment on
	// warehouse 1 (partition 0).
	if err := set.Run("new_order", newOrderArgs(2,
		tpcc.OrderLineReq{ItemID: 1, SupplyW: 2, Quantity: 3},
		tpcc.OrderLineReq{ItemID: 2, SupplyW: 2, Quantity: 1},
	)); err != nil {
		t.Fatal(err)
	}
	if err := set.Run("payment", &tpcc.PaymentArgs{
		WID: 1, DID: 1, CWID: 1, CDID: 1, CID: 1, Amount: 500, HID: 1 << 30,
	}); err != nil {
		t.Fatal(err)
	}

	st := set.Snapshot()
	if st.SingleRouted != 2 {
		t.Errorf("single-routed = %d, want 2", st.SingleRouted)
	}
	if st.CrossStarted != 0 || st.ShotsRun != 0 {
		t.Errorf("cross-partition machinery engaged for local transactions: %+v", st)
	}
	// The order landed on partition 1, nothing on partition 0.
	if n := set.Engine(1).DB().Store().Table(tpcc.TNewOrder).Len(); n == 0 {
		t.Error("new order missing from its home partition")
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, nil); len(errs) > 0 {
		t.Fatalf("consistency: %v", errs[0])
	}
}

// TestCrossPartitionNewOrder: a new-order with a remote-partition supply
// line runs as home transaction + one no_stock shot; both partitions end up
// with the correct stock and the battery (including the cross-partition
// condition 13) holds.
func TestCrossPartitionNewOrder(t *testing.T) {
	scale := smallScale(2)
	set := buildTPCCSet(t, 2, scale, 1, "")
	defer set.Close()

	before := stockYTD(t, set, 1, 2, 7)
	// Home warehouse 1 (partition 0), one local line, one line supplied by
	// warehouse 2 (partition 1).
	if err := set.Run("new_order", newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 3, SupplyW: 1, Quantity: 2},
		tpcc.OrderLineReq{ItemID: 7, SupplyW: 2, Quantity: 5},
	)); err != nil {
		t.Fatal(err)
	}

	st := set.Snapshot()
	if st.CrossStarted != 1 || st.CrossCommitted != 1 || st.ShotsRun != 1 {
		t.Errorf("cross counters = %+v, want one committed cross transaction with one shot", st)
	}
	if st.ShotUndos != 0 || st.CrossAborted != 0 {
		t.Errorf("unexpected rollback activity: %+v", st)
	}
	if got := stockYTD(t, set, 1, 2, 7); got != before+5 {
		t.Errorf("remote stock s_ytd = %d, want %d", got, before+5)
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, nil); len(errs) > 0 {
		t.Fatalf("consistency: %v", errs[0])
	}
}

// TestCrossPartitionRollback: a remote order that aborts in its finish step
// — after the remote shot committed — must be compensated on both
// partitions: the home engine's §3.4 rollback locally, the coordinator's
// no_stock_undo shot remotely.
func TestCrossPartitionRollback(t *testing.T) {
	scale := smallScale(2)
	set := buildTPCCSet(t, 2, scale, 1, "")
	defer set.Close()

	before := stockYTD(t, set, 1, 2, 9)
	args := newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 4, SupplyW: 1, Quantity: 1},
		tpcc.OrderLineReq{ItemID: 9, SupplyW: 2, Quantity: 4},
	)
	args.FailFinal = true
	err := set.Run("new_order", args)
	if err == nil {
		t.Fatal("FailFinal new-order committed")
	}
	if !core.IsCompensated(err) {
		t.Fatalf("want compensated error, got %v", err)
	}

	st := set.Snapshot()
	if st.CrossAborted != 1 || st.ShotsRun != 1 || st.ShotUndos != 1 {
		t.Errorf("cross counters = %+v, want one aborted cross transaction, one shot, one undo", st)
	}
	if got := stockYTD(t, set, 1, 2, 9); got != before {
		t.Errorf("remote stock s_ytd = %d after rollback, want %d", got, before)
	}
	holes := map[tpcc.DistrictKey]map[int64]bool{
		{W: 1, D: 1}: {args.ONum: true},
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, holes); len(errs) > 0 {
		t.Fatalf("consistency: %v", errs[0])
	}
}

// TestMultiShotPlan: remote lines on two different partitions become two
// shots; a finish-step abort then undoes both in reverse order.
func TestMultiShotPlan(t *testing.T) {
	scale := smallScale(3)
	set := buildTPCCSet(t, 3, scale, 1, "")
	defer set.Close()

	if err := set.Run("new_order", newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 1, SupplyW: 1, Quantity: 1},
		tpcc.OrderLineReq{ItemID: 2, SupplyW: 2, Quantity: 2},
		tpcc.OrderLineReq{ItemID: 3, SupplyW: 3, Quantity: 3},
	)); err != nil {
		t.Fatal(err)
	}
	if st := set.Snapshot(); st.ShotsRun != 2 {
		t.Errorf("shots = %d, want 2 (one per remote partition)", st.ShotsRun)
	}

	args := newOrderArgs(2,
		tpcc.OrderLineReq{ItemID: 5, SupplyW: 1, Quantity: 1},
		tpcc.OrderLineReq{ItemID: 6, SupplyW: 3, Quantity: 2},
	)
	args.FailFinal = true
	if err := set.Run("new_order", args); err == nil {
		t.Fatal("FailFinal new-order committed")
	}
	if st := set.Snapshot(); st.ShotUndos != 2 {
		t.Errorf("shot undos = %d, want 2", st.ShotUndos)
	}
	holes := map[tpcc.DistrictKey]map[int64]bool{
		{W: 2, D: 1}: {args.ONum: true},
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, holes); len(errs) > 0 {
		t.Fatalf("consistency: %v", errs[0])
	}
}

// TestPartitionedConsistencyUnderLoad is the acceptance battery: four
// partitions, the full mix with a high remote-warehouse share, concurrent
// terminals, then every consistency condition — including the
// cross-partition stock/order-line tie (condition 13) — over the union of
// the partition stores.
func TestPartitionedConsistencyUnderLoad(t *testing.T) {
	scale := tpcc.Scale{
		Warehouses: 4, Districts: 2, CustomersPerDistrict: 20,
		Items: 60, InitialOrdersPerDistrict: 20, NewOrderBacklog: 8,
	}
	set := buildTPCCSet(t, 4, scale, 42, "")
	defer set.Close()

	wcfg := tpcc.DefaultWorkloadConfig(scale)
	wcfg.RemotePercent = 30
	wcfg.RollbackPercent = 10
	w := tpcc.NewRemoteWorkload(set.Run, wcfg)

	const terminals, opsPerTerminal = 8, 150
	var wg sync.WaitGroup
	for term := 0; term < terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(42 + int64(term)*7919))
			for i := 0; i < opsPerTerminal; i++ {
				w.Next(r, term).Run()
			}
		}(term)
	}
	wg.Wait()

	st := set.Snapshot()
	if st.CrossStarted == 0 {
		t.Fatal("no cross-partition transactions in a 30% remote mix")
	}
	if st.SingleRouted == 0 {
		t.Fatal("no single-partition transactions")
	}
	t.Logf("routing: single=%d crossStarted=%d crossCommitted=%d crossAborted=%d shots=%d undos=%d deadlocks=%d",
		st.SingleRouted, st.CrossStarted, st.CrossCommitted, st.CrossAborted,
		st.ShotsRun, st.ShotUndos, st.CrossDeadlocks)

	errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, w.Holes())
	for i, err := range errs {
		if i > 5 {
			t.Fatalf("... and %d more", len(errs)-i)
		}
		t.Error(err)
	}
}

// TestRecoverForwardDrive: crash right after a cross-partition commit. The
// home commit force is the global commit point, but the advisory
// TCoordCommit behind it is lost with the page cache — recovery must close
// the decision record as committed, not roll the shots back.
func TestRecoverForwardDrive(t *testing.T) {
	scale := smallScale(2)
	dir := t.TempDir()
	set := buildTPCCSet(t, 2, scale, 1, dir)

	if err := set.Run("new_order", newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 3, SupplyW: 1, Quantity: 2},
		tpcc.OrderLineReq{ItemID: 7, SupplyW: 2, Quantity: 5},
	)); err != nil {
		t.Fatal(err)
	}
	after := stockYTD(t, set, 1, 2, 7)
	for _, e := range set.Engines() {
		e.Log().Crash()
	}
	set.Close()
	for _, e := range set.Engines() {
		e.Log().Close()
	}

	set2 := buildTPCCSet(t, 2, scale, 1, dir)
	defer set2.Close()
	res, err := set2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ForwardDriven) != 1 || len(res.Undone) != 0 {
		t.Fatalf("recovery closed %v forward, %v undone; want 1 forward", res.ForwardDriven, res.Undone)
	}
	if got := stockYTD(t, set2, 1, 2, 7); got != after {
		t.Errorf("recovered remote stock s_ytd = %d, want %d", got, after)
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set2), scale, nil); len(errs) > 0 {
		t.Fatalf("consistency after recovery: %v", errs[0])
	}
}

// TestRecoverUndoesShots: crash between shots (the partition.coord.shot
// fault point). The shot's commit is durable on its partition, the home
// transaction is not — recovery must compensate the home transaction
// locally and run the shot's undo from the work area its end-of-step record
// preserved.
func TestRecoverUndoesShots(t *testing.T) {
	scale := smallScale(2)
	dir := t.TempDir()
	set := buildTPCCSet(t, 2, scale, 1, dir)

	before := stockYTD(t, set, 1, 2, 9)
	ctrl := fault.NewController(1)
	ctrl.Arm("partition.coord.shot.crash", fault.Spec{Effect: fault.Crash, Nth: 1})
	ctrl.Activate()
	err := set.Run("new_order", newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 4, SupplyW: 1, Quantity: 1},
		tpcc.OrderLineReq{ItemID: 9, SupplyW: 2, Quantity: 4},
	))
	fault.Deactivate()
	// The frozen logs make everything after the crash point non-durable; the
	// in-process run itself continues and commits.
	if err != nil {
		t.Fatalf("post-crash-point execution: %v", err)
	}
	set.Close()
	for _, e := range set.Engines() {
		e.Log().Close()
	}

	set2 := buildTPCCSet(t, 2, scale, 1, dir)
	defer set2.Close()
	res, err := set2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undone) != 1 || len(res.ForwardDriven) != 0 {
		t.Fatalf("recovery closed %v undone, %v forward; want 1 undone", res.Undone, res.ForwardDriven)
	}
	if got := stockYTD(t, set2, 1, 2, 9); got != before {
		t.Errorf("remote stock s_ytd = %d after recovery undo, want %d", got, before)
	}
	holes := tpcc.HolesFromRecovery(res.Partitions[0])
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set2), scale, holes); len(errs) > 0 {
		t.Fatalf("consistency after recovery: %v", errs[0])
	}

	// Idempotence: a second recovery pass over the same (reopened) logs finds
	// the decision record closed and does nothing.
	set2.Close()
	for _, e := range set2.Engines() {
		e.Log().Close()
	}
	set3 := buildTPCCSet(t, 2, scale, 1, dir)
	defer set3.Close()
	res3, err := set3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Undone) != 0 || len(res3.ForwardDriven) != 0 {
		t.Fatalf("second recovery reopened globals: %+v", res3)
	}
}

// TestCrossPartitionDeadlock builds the cycle the issue prescribes: two
// cross-partition transactions acquire exposure marks in opposite partition
// order — each holds a row on its home partition and sends a shot after the
// row the other holds. No single engine sees a cycle; only the projection
// of the per-partition waits-for edges through the shot table does. The
// detector dooms the younger global (§3.4's compensating-victim rule: the
// survivor keeps its marks, the victim is compensated) and the survivor
// commits.
func TestCrossPartitionDeadlock(t *testing.T) {
	sys := newLockerSys(t)
	set := sys.set
	defer set.Close()

	barrier := newBarrier(2)
	errs := make(chan error, 2)
	// T1: home partition 0, holds key 1 there, then pokes key 2 on partition 1.
	// T2: home partition 1, holds key 2 there, then pokes key 1 on partition 0.
	go func() {
		errs <- set.Run("locker", &lockerArgs{Home: 0, LocalKey: 1, RemoteKey: 2, barrier: barrier})
	}()
	go func() {
		errs <- set.Run("locker", &lockerArgs{Home: 1, LocalKey: 2, RemoteKey: 1, barrier: barrier})
	}()

	// Background detection is off (WithDetectInterval < 0); drive it by hand
	// until the cycle appears.
	deadline := time.Now().Add(10 * time.Second)
	doomed := 0
	for doomed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cross-partition deadlock never detected")
		}
		doomed = set.DetectOnce()
		time.Sleep(2 * time.Millisecond)
	}
	if doomed != 1 {
		t.Errorf("doomed %d globals, want 1", doomed)
	}

	var failures []error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			failures = append(failures, err)
		}
	}
	if len(failures) != 1 {
		t.Fatalf("want exactly one victim, got %d failures: %v", len(failures), failures)
	}
	st := set.Snapshot()
	if st.CrossDeadlocks != 1 {
		t.Errorf("cross deadlocks = %d, want 1", st.CrossDeadlocks)
	}
	if st.CrossCommitted != 1 || st.CrossAborted != 1 {
		t.Errorf("counters = %+v, want one committed and one aborted global", st)
	}

	// Exactly one (home, remote) pair carries the survivor's increments; the
	// victim's home increment was compensated away and its poke never landed.
	v1, v2 := sys.value(t, 0, 1), sys.value(t, 1, 2)
	ok := (v1 == 1 && v2 == 10) || (v1 == 10 && v2 == 1)
	if !ok {
		t.Errorf("final values key1=%d key2=%d; want (1,10) or (10,1)", v1, v2)
	}
}

// --- minimal cross-partition locker system for the deadlock test -----------

type barrier struct {
	mu    sync.Mutex
	n     int
	ch    chan struct{}
	seen  map[*lockerArgs]bool
	total int
}

func newBarrier(n int) *barrier {
	return &barrier{total: n, ch: make(chan struct{}), seen: make(map[*lockerArgs]bool)}
}

// arrive blocks until all parties have arrived once; re-arrival (a retried
// step) passes straight through.
func (b *barrier) arrive(a *lockerArgs) {
	b.mu.Lock()
	if !b.seen[a] {
		b.seen[a] = true
		b.n++
		if b.n == b.total {
			close(b.ch)
		}
	}
	b.mu.Unlock()
	select {
	case <-b.ch:
	case <-time.After(5 * time.Second):
	}
}

type lockerArgs struct {
	Home      int
	LocalKey  int64
	RemoteKey int64
	barrier   *barrier
}

type pokeArgs struct{ Key int64 }

type lockerSys struct {
	set *partition.Set
}

func (s *lockerSys) value(t *testing.T, part int, key int64) int64 {
	t.Helper()
	tb := s.set.Engine(part).DB().Store().Table("kv")
	row, err := tb.Get(spi.EncodeKey(spi.I64(key)))
	if err != nil {
		t.Fatalf("kv %d on partition %d: %v", key, part, err)
	}
	return row[1].Int64()
}

func newLockerSys(t *testing.T) *lockerSys {
	t.Helper()
	b := newInterference()
	set, err := partition.New(2, func(p int) (*core.Engine, error) {
		db := core.NewDB()
		kv := db.MustCreateTable(spi.MustSchema("kv", []spi.Column{
			{Name: "k", Kind: spi.KindInt},
			{Name: "v", Kind: spi.KindInt},
		}, "k"))
		// Partition 0 owns key 1, partition 1 owns key 2.
		if err := kv.Insert(spi.Row{spi.I64(int64(p + 1)), spi.I64(0)}); err != nil {
			return nil, err
		}
		eng := core.New(db, b.tables,
			core.WithMode(core.ModeACC),
			core.WithWaitTimeout(10*time.Second),
			core.WithEngineLabel(fmt.Sprintf("partition %d", p)),
		)
		registerLockerTypes(eng, b)
		return eng, nil
	}, partition.WithDetectInterval(-1))
	if err != nil {
		t.Fatal(err)
	}
	set.SetRoute("locker", partition.Route{
		Home: func(args any) int { return args.(*lockerArgs).Home },
		Split: func(args any) []partition.Shot {
			a := args.(*lockerArgs)
			return []partition.Shot{{Partition: 1 - a.Home, Type: "poke", Args: &pokeArgs{Key: a.RemoteKey}}}
		},
	})
	pokeHome := func(args any) int { return int(args.(*pokeArgs).Key) - 1 }
	set.SetRoute("poke", partition.Route{Home: pokeHome})
	set.SetRoute("poke_undo", partition.Route{Home: pokeHome})
	set.SetUndo("poke", partition.UndoSpec{Type: "poke_undo"})
	return &lockerSys{set: set}
}

func addKV(tc *core.Ctx, key, delta int64) error {
	return tc.Update("kv", []spi.Value{spi.I64(key)}, func(row spi.Row) error {
		row[1] = spi.I64(row[1].Int64() + delta)
		return nil
	})
}

func encodePoke(v any) []byte {
	a := v.(*pokeArgs)
	return []byte(fmt.Sprintf("%d", a.Key))
}

func decodePoke(data []byte) (any, error) {
	var k int64
	if _, err := fmt.Sscanf(string(data), "%d", &k); err != nil {
		return nil, err
	}
	return &pokeArgs{Key: k}, nil
}

// lockerInterference is the design-time registration of the locker system:
// a two-step home transaction, a single-step shot, and its undo. No
// interference freedoms are declared, so every conflicting access waits —
// which is the point: the test needs the waits.
type lockerInterference struct {
	tables                             *interference.Tables
	txnLocker, txnPoke, txnPokeUndo    interference.TxnTypeID
	stGrab, stHook, stPoke, stPokeUndo interference.StepTypeID
	stComp                             interference.StepTypeID
}

func newInterference() *lockerInterference {
	b := interference.NewBuilder()
	li := &lockerInterference{}
	li.txnLocker = b.TxnType("locker", 2)
	li.txnPoke = b.TxnType("poke", 1)
	li.txnPokeUndo = b.TxnType("poke_undo", 1)
	li.stGrab = b.StepType("grab")
	li.stHook = b.StepType("hook")
	li.stPoke = b.StepType("poke")
	li.stPokeUndo = b.StepType("poke-undo")
	li.stComp = b.StepType("comp")
	li.tables = b.Build()
	return li
}

func registerLockerTypes(eng *core.Engine, li *lockerInterference) {
	eng.MustRegister(&core.TxnType{
		Name: "locker",
		ID:   li.txnLocker,
		Steps: []core.Step{
			{Name: "grab", Type: li.stGrab, Body: func(tc *core.Ctx) error {
				a := tc.Args().(*lockerArgs)
				if err := addKV(tc, a.LocalKey, 1); err != nil {
					return err
				}
				// Hold the exposure mark until the peer holds its own: both
				// transactions enter their shot phase with their home rows
				// locked, making the cross-partition cycle certain.
				a.barrier.arrive(a)
				return nil
			}},
			{Name: "hook", Type: li.stHook, Body: func(tc *core.Ctx) error {
				hook, ok := partition.HookFrom(tc.Context())
				if !ok {
					return nil
				}
				return hook()
			}},
		},
		Comp: &core.Compensation{
			Type: li.stComp,
			Body: func(tc *core.Ctx, completed int) error {
				if completed < 1 {
					return nil
				}
				return addKV(tc, tc.Args().(*lockerArgs).LocalKey, -1)
			},
		},
	})
	eng.MustRegister(&core.TxnType{
		Name: "poke", ID: li.txnPoke,
		Steps: []core.Step{{Name: "poke", Type: li.stPoke, Body: func(tc *core.Ctx) error {
			return addKV(tc, tc.Args().(*pokeArgs).Key, 10)
		}}},
		EncodeArgs: encodePoke,
		DecodeArgs: decodePoke,
	})
	eng.MustRegister(&core.TxnType{
		Name: "poke_undo", ID: li.txnPokeUndo,
		Steps: []core.Step{{Name: "poke-undo", Type: li.stPokeUndo, Body: func(tc *core.Ctx) error {
			return addKV(tc, tc.Args().(*pokeArgs).Key, -10)
		}}},
		EncodeArgs: encodePoke,
		DecodeArgs: decodePoke,
	})
}
