package main

import (
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/spi"
)

// storeOp is one timed spi.Table operation.
type storeOp int

const (
	opGet storeOp = iota
	opUpdate
	opInsert
	opDelete
	opIndexScan
	opIndexRange
	opGetAsOf
	opScanAsOf
	opIndexScanAsOf
	opPublishVersion
	opPrune
	numStoreOps
)

var storeOpNames = [numStoreOps]string{
	"get", "update", "insert", "delete", "index_scan", "index_range",
	"get_as_of", "scan_as_of", "index_scan_as_of", "publish_version", "prune",
}

// storeStats accumulates storage calls while on is set. Scan durations
// exclude the time spent in the caller's visitor, which runs engine code, so
// nanos is the store's own time.
type storeStats struct {
	on    *atomic.Bool
	calls [numStoreOps]atomic.Uint64
	nanos [numStoreOps]atomic.Int64
	scans atomic.Uint64
	rows  atomic.Uint64
}

func (s *storeStats) add(op storeOp, start time.Time) {
	if s.on.Load() {
		s.calls[op].Add(1)
		s.nanos[op].Add(int64(time.Since(start)))
	}
}

func (s *storeStats) addScan(op storeOp, start time.Time, v *scanVisitor) {
	if s.on.Load() {
		s.calls[op].Add(1)
		s.nanos[op].Add(int64(time.Since(start) - v.inside))
		s.scans.Add(1)
		s.rows.Add(v.rows)
	}
}

// scanVisitor wraps a scan's visitor to count rows and time the caller's
// share of the scan.
type scanVisitor struct {
	fn     func(pk spi.Key, row spi.Row) bool
	rows   uint64
	inside time.Duration
}

func (v *scanVisitor) visit(pk spi.Key, row spi.Row) bool {
	v.rows++
	start := time.Now()
	more := v.fn(pk, row)
	v.inside += time.Since(start)
	return more
}

// timedStore decorates an spi.Store: every table it creates is a
// timedTable charging its calls to one storeStats. It is installed with
// core.WithStore, so the engine runs unchanged over the decorated backend.
type timedStore struct {
	inner spi.Store
	stats *storeStats

	mu     sync.RWMutex
	tables map[string]*timedTable
}

func newTimedStore(inner spi.Store, stats *storeStats) *timedStore {
	return &timedStore{inner: inner, stats: stats, tables: make(map[string]*timedTable)}
}

func (s *timedStore) Create(schema *spi.Schema) (spi.Table, error) {
	t, err := s.inner.Create(schema)
	if err != nil {
		return nil, err
	}
	tt := &timedTable{Table: t, stats: s.stats}
	s.mu.Lock()
	s.tables[schema.Name] = tt
	s.mu.Unlock()
	return tt, nil
}

func (s *timedStore) Table(name string) spi.Table {
	s.mu.RLock()
	t := s.tables[name]
	s.mu.RUnlock()
	if t == nil {
		return nil // an untyped nil, as the Store contract requires
	}
	return t
}

func (s *timedStore) Names() []string { return s.inner.Names() }

// Capabilities forwards the wrapped backend's declaration, so the engine
// enables exactly the features it would without the decorator.
func (s *timedStore) Capabilities() spi.Capabilities { return spi.StoreCapabilities(s.inner) }

// timedTable times the spi.Table operations the benchmark reports; the
// embedded Table forwards the rest untimed.
type timedTable struct {
	spi.Table
	stats *storeStats
}

func (t *timedTable) Get(pk spi.Key) (spi.Row, error) {
	start := time.Now()
	row, err := t.Table.Get(pk)
	t.stats.add(opGet, start)
	return row, err
}

func (t *timedTable) Insert(row spi.Row) error {
	start := time.Now()
	err := t.Table.Insert(row)
	t.stats.add(opInsert, start)
	return err
}

func (t *timedTable) Update(pk spi.Key, row spi.Row) (spi.Row, error) {
	start := time.Now()
	prev, err := t.Table.Update(pk, row)
	t.stats.add(opUpdate, start)
	return prev, err
}

func (t *timedTable) Delete(pk spi.Key) (spi.Row, error) {
	start := time.Now()
	prev, err := t.Table.Delete(pk)
	t.stats.add(opDelete, start)
	return prev, err
}

func (t *timedTable) IndexScan(indexName string, eq []spi.Value, visit func(pk spi.Key, row spi.Row) bool) error {
	v := &scanVisitor{fn: visit}
	start := time.Now()
	err := t.Table.IndexScan(indexName, eq, v.visit)
	t.stats.addScan(opIndexScan, start, v)
	return err
}

func (t *timedTable) IndexRange(indexName string, lo, hi []spi.Value, visit func(pk spi.Key, row spi.Row) bool) error {
	v := &scanVisitor{fn: visit}
	start := time.Now()
	err := t.Table.IndexRange(indexName, lo, hi, v.visit)
	t.stats.addScan(opIndexRange, start, v)
	return err
}

func (t *timedTable) GetAsOf(pk spi.Key, asOf spi.CSN) (spi.Row, error) {
	start := time.Now()
	row, err := t.Table.GetAsOf(pk, asOf)
	t.stats.add(opGetAsOf, start)
	return row, err
}

func (t *timedTable) ScanAsOf(asOf spi.CSN, visit func(pk spi.Key, row spi.Row) bool) {
	v := &scanVisitor{fn: visit}
	start := time.Now()
	t.Table.ScanAsOf(asOf, v.visit)
	t.stats.addScan(opScanAsOf, start, v)
}

func (t *timedTable) IndexScanAsOf(indexName string, eq []spi.Value, asOf spi.CSN, visit func(pk spi.Key, row spi.Row) bool) error {
	v := &scanVisitor{fn: visit}
	start := time.Now()
	err := t.Table.IndexScanAsOf(indexName, eq, asOf, v.visit)
	t.stats.addScan(opIndexScanAsOf, start, v)
	return err
}

func (t *timedTable) PublishVersion(pk spi.Key, prior, row spi.Row, csn spi.CSN) {
	start := time.Now()
	t.Table.PublishVersion(pk, prior, row, csn)
	t.stats.add(opPublishVersion, start)
}

func (t *timedTable) PruneVersions(floor spi.CSN) (pruned, dropped int) {
	start := time.Now()
	pruned, dropped = t.Table.PruneVersions(floor)
	t.stats.add(opPrune, start)
	return pruned, dropped
}
