package tpcc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"accdb/internal/core"
	"accdb/internal/partition"
	"accdb/internal/spi"
)

// Partitioned TPC-C (DESIGN.md §16). Warehouses stripe over partitions
// (PartitionOf); every table row lives with its warehouse except item,
// which is read-only and replicated into every partition by the loader. A
// new-order whose supply warehouses all share the home partition runs
// exactly as before; one with remote supply lines becomes a cross-partition
// transaction — the home transaction enters the order and its lines and
// updates local stock, while each remote partition's stock updates run as
// one no_stock shot. The shot's compensating undo (no_stock_undo) restocks
// from the quantities the shot actually took, recorded in its work area.

// noRemote is the NOR step: the hook the partition coordinator planted in
// the context runs the instance's remote shots while this transaction holds
// its exposure marks. On a single engine (no coordinator) it is a no-op, so
// the type definition runs unchanged outside a partitioned deployment.
func (reg *Registration) noRemote(tc *core.Ctx) error {
	hook, ok := partition.HookFrom(tc.Context())
	if !ok {
		return nil
	}
	return hook()
}

// NoStockArgs parameterizes one no_stock shot: the remote-partition supply
// lines of a single new-order that land on one partition.
type NoStockArgs struct {
	// WID is the order's home warehouse (diagnostics; every line's SupplyW
	// names the warehouse actually updated).
	WID   int64
	Lines []OrderLineReq

	// Work area: per line, the stock quantity actually deducted — what the
	// undo must restore.
	Filled []int64
}

func encodeNoStock(v any) []byte { return appendNoStock(nil, v) }

func appendNoStock(dst []byte, v any) []byte {
	a := v.(*NoStockArgs)
	dst = binary.AppendUvarint(dst, uint64(2+4*len(a.Lines)))
	dst = colI64(dst, a.WID)
	dst = colI64(dst, int64(len(a.Lines)))
	for i, l := range a.Lines {
		filled := int64(0)
		if i < len(a.Filled) {
			filled = a.Filled[i]
		}
		dst = colI64(dst, l.ItemID)
		dst = colI64(dst, l.SupplyW)
		dst = colI64(dst, l.Quantity)
		dst = colI64(dst, filled)
	}
	return dst
}

func decodeNoStock(data []byte) (any, error) {
	row, _, err := spi.UnmarshalRow(data)
	if err != nil {
		return nil, err
	}
	if len(row) < 2 {
		return nil, fmt.Errorf("tpcc: short no_stock work area")
	}
	a := &NoStockArgs{WID: row[0].Int64()}
	n := int(row[1].Int64())
	if len(row) != 2+4*n {
		return nil, fmt.Errorf("tpcc: malformed no_stock work area")
	}
	for i := 0; i < n; i++ {
		base := 2 + 4*i
		a.Lines = append(a.Lines, OrderLineReq{
			ItemID: row[base].Int64(), SupplyW: row[base+1].Int64(),
			Quantity: row[base+2].Int64(),
		})
		a.Filled = append(a.Filled, row[base+3].Int64())
	}
	return a, nil
}

// noStockType is the remote-stock shot: deplete each line's stock by the
// TPC-C rule, recording the quantities taken. Single-step, so it needs no
// compensation of its own — the global rollback runs no_stock_undo instead.
func (reg *Registration) noStockType() *core.TxnType {
	t := reg.Types
	return &core.TxnType{
		Name:       "no_stock",
		ID:         t.NoStock,
		Steps:      []core.Step{{Name: "NOS", Type: t.NOS, Body: reg.noStockApply}},
		EncodeArgs: encodeNoStock,
		AppendArgs: appendNoStock,
		DecodeArgs: decodeNoStock,
	}
}

func (reg *Registration) noStockApply(tc *core.Ctx) error {
	a := tc.Args().(*NoStockArgs)
	// Item order, like the compensating restock: concurrent shots then take
	// their stock locks in one global order within the partition.
	order := lineOrder(a.Lines)
	for _, i := range order {
		l := a.Lines[i]
		var taken int64
		err := tc.Update(TStock, []spi.Value{i64(l.SupplyW), i64(l.ItemID)}, func(row spi.Row) error {
			q := row[colSQty].Int64()
			var nq int64
			if q >= l.Quantity+10 {
				nq = q - l.Quantity
			} else {
				nq = q - l.Quantity + 91
			}
			taken = q - nq
			row[colSQty] = i64(nq)
			row[colSYTD] = i64(row[colSYTD].Int64() + l.Quantity)
			row[colSOrderCnt] = i64(row[colSOrderCnt].Int64() + 1)
			return nil
		})
		if err != nil {
			return err
		}
		a.Filled[i] = taken
	}
	return nil
}

// noStockUndoType semantically reverses a committed no_stock shot: restore
// the exact quantities its work area says were taken.
func (reg *Registration) noStockUndoType() *core.TxnType {
	t := reg.Types
	return &core.TxnType{
		Name:       "no_stock_undo",
		ID:         t.NoStockUndo,
		Steps:      []core.Step{{Name: "NOSU", Type: t.NOSU, Body: reg.noStockRevert}},
		EncodeArgs: encodeNoStock,
		AppendArgs: appendNoStock,
		DecodeArgs: decodeNoStock,
	}
}

func (reg *Registration) noStockRevert(tc *core.Ctx) error {
	a := tc.Args().(*NoStockArgs)
	order := lineOrder(a.Lines)
	for _, i := range order {
		l := a.Lines[i]
		taken, qty := a.Filled[i], l.Quantity
		err := tc.Update(TStock, []spi.Value{i64(l.SupplyW), i64(l.ItemID)}, func(row spi.Row) error {
			row[colSQty] = i64(row[colSQty].Int64() + taken)
			row[colSYTD] = i64(row[colSYTD].Int64() - qty)
			row[colSOrderCnt] = i64(row[colSOrderCnt].Int64() - 1)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func lineOrder(lines []OrderLineReq) []int {
	order := make([]int, len(lines))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return lines[order[x]].ItemID < lines[order[y]].ItemID })
	return order
}

// InstallRoutes declares the TPC-C routing on a partition set: every
// transaction type homes on its warehouse's partition, and new-order splits
// its remote-partition supply lines into one no_stock shot per partition,
// undone by no_stock_undo. Call after RegisterPartitioned ran on each of
// the set's engines.
func InstallRoutes(set *partition.Set) {
	parts := set.Partitions()
	byWID := func(wid int64) int { return PartitionOf(wid, parts) }
	set.SetRoute("new_order", partition.Route{
		Home: func(args any) int { return byWID(args.(*NewOrderArgs).WID) },
		Split: func(args any) []partition.Shot {
			a := args.(*NewOrderArgs)
			home := byWID(a.WID)
			grouped := make(map[int]*NoStockArgs)
			for _, l := range a.Lines {
				p := byWID(l.SupplyW)
				if p == home {
					continue
				}
				g := grouped[p]
				if g == nil {
					g = &NoStockArgs{WID: a.WID}
					grouped[p] = g
				}
				g.Lines = append(g.Lines, l)
			}
			if len(grouped) == 0 {
				return nil
			}
			// Ascending partition order: every cross-partition new-order
			// visits partitions in the same sequence.
			ps := make([]int, 0, len(grouped))
			for p := range grouped {
				ps = append(ps, p)
			}
			sort.Ints(ps)
			shots := make([]partition.Shot, 0, len(ps))
			for _, p := range ps {
				g := grouped[p]
				g.Filled = make([]int64, len(g.Lines))
				shots = append(shots, partition.Shot{Partition: p, Type: "no_stock", Args: g})
			}
			return shots
		},
	})
	set.SetRoute("payment", partition.Route{
		Home: func(args any) int { return byWID(args.(*PaymentArgs).WID) },
	})
	set.SetRoute("delivery", partition.Route{
		Home: func(args any) int { return byWID(args.(*DeliveryArgs).WID) },
	})
	set.SetRoute("order_status", partition.Route{
		Home: func(args any) int { return byWID(args.(*OrderStatusArgs).WID) },
	})
	set.SetRoute("stock_level", partition.Route{
		Home: func(args any) int { return byWID(args.(*StockLevelArgs).WID) },
	})
	homeBySupply := func(args any) int {
		a := args.(*NoStockArgs)
		if len(a.Lines) == 0 {
			return 0
		}
		return byWID(a.Lines[0].SupplyW)
	}
	set.SetRoute("no_stock", partition.Route{Home: homeBySupply})
	set.SetRoute("no_stock_undo", partition.Route{Home: homeBySupply})
	// The forward shot's args double as the undo's: its work area carries
	// the filled quantities by the time an undo can run.
	set.SetUndo("no_stock", partition.UndoSpec{Type: "no_stock_undo"})
}

// NewSet builds the TPC-C deployment every command and harness runs: n ≥ 1
// engines, each over a fresh database loaded with its partition's
// warehouses (all of them at n = 1), built with the options opts returns
// for it, its transaction types registered; then the warehouse routes are
// installed. A single engine is the one-partition set, whose transactions
// all route straight to it. Engines are labelled "partition p" only when
// n > 1, and scale must give every partition a warehouse.
//
// The caller owns any logs opts opened: after set.Close it closes them
// through set.Engines()[p].Log(). If the build fails, NewSet closes the logs
// of every engine it had built; opts cleans up after its own failure.
func NewSet(n int, scale Scale, seed int64, opts func(p int) ([]core.Option, error), setOpts ...partition.Option) (*partition.Set, error) {
	if scale.Warehouses < n {
		return nil, fmt.Errorf("tpcc: %d warehouses cannot cover %d partitions", scale.Warehouses, n)
	}
	var built []*core.Engine
	set, err := partition.New(n, func(p int) (*core.Engine, error) {
		db := core.NewDB()
		if err := CreateSchema(db); err != nil {
			return nil, err
		}
		if err := LoadPartition(db, scale, seed, p, n); err != nil {
			return nil, err
		}
		o, err := opts(p)
		if err != nil {
			return nil, err
		}
		if n > 1 {
			o = append(o, core.WithEngineLabel(fmt.Sprintf("partition %d", p)))
		}
		types := BuildTypes()
		eng := core.New(db, types.Tables, o...)
		built = append(built, eng)
		if _, err := RegisterPartitioned(eng, types, scale, n); err != nil {
			return nil, err
		}
		return eng, nil
	}, setOpts...)
	if err != nil {
		for _, e := range built {
			e.Close()
			e.Log().Close()
		}
		return nil, err
	}
	InstallRoutes(set)
	return set, nil
}

// LoadPartition populates one partition's database: the full item table
// (replicated, read-only) plus every warehouse the partition owns. With one
// partition it is exactly Load.
func LoadPartition(db *core.DB, s Scale, seed int64, part, parts int) error {
	if parts <= 1 {
		return Load(db, s, seed)
	}
	return loadWarehouses(db, s, seed, func(w int) bool {
		return PartitionOf(int64(w), parts) == part
	})
}

// CheckConsistencyPartitioned evaluates the full consistency battery over a
// partitioned deployment: each check's aggregation runs across every
// partition's store (rows are disjoint by warehouse), which is what lets
// condition 13 tie order lines in one partition to stock in another.
func CheckConsistencyPartitioned(dbs []*core.DB, s Scale, holes map[DistrictKey]map[int64]bool) []error {
	cats := make([]spi.Store, len(dbs))
	for i, db := range dbs {
		cats[i] = db.Store()
	}
	return runChecks(&checker{cats: cats, scale: s, holes: holes})
}
