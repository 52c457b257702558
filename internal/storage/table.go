// Package storage implements the default row-store backend of the SPI
// (accdb/internal/spi): heap tables with hash primary indexes, B+-tree
// secondary indexes, and per-key version chains for the lock-free read
// tiers. It registers itself under the backend name "btree".
//
// Base rows are stored packed: each is its exact-size spi.MarshalRow
// encoding, a pointer-free byte slice the garbage collector never scans,
// the way the paper's Ingres substrate stored tuples as bytes on pages.
// Reads decode a private Row for the caller; writes encode the row they are
// given, so a caller's row is never aliased by the store. Version chains
// keep decoded rows (version.go). The scheduler above the SPI never sees
// the layout.
//
// The package plays the role that CA-Open Ingres's storage layer played in
// the paper: it stores tuples and hands out stable item identities that the
// lock service and the schedulers lock. The storage layer itself provides
// only physical consistency (latches); all logical concurrency control
// happens above it, through the SPI.
package storage

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"

	"accdb/internal/spi"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// Table is a heap relation with a hash primary index and optional B+-tree
// secondary indexes. It implements spi.Table.
//
// A Table provides physical consistency only: the embedded RWMutex is a
// latch held for the duration of a single operation. Logical isolation
// (two-phase and assertional locking) is layered above by package core, the
// way Ingres layers its lock manager above the page store.
type Table struct {
	schema *spi.Schema

	mu      sync.RWMutex
	rows    map[spi.Key][]byte // packed rows (pack/unpack)
	indexes []*secondaryIndex
	// versions holds per-key version chains for the lock-free read tiers
	// (version.go): ascending CSN order, seeded with the key's pre-image on
	// first mutation so as-of reads never consult an uncommitted base row.
	versions map[spi.Key][]version
}

type secondaryIndex struct {
	def  spi.IndexDef
	cols []int
	tree *BTree
}

// NewTable creates an empty table for the schema.
func NewTable(schema *spi.Schema) *Table {
	return &Table{schema: schema, rows: make(map[spi.Key][]byte)}
}

// packBuf sizes the stack buffer pack encodes into; only rows larger than it
// (long strings) cost a second allocation.
const packBuf = 1024

// pack encodes row as an exact-size packed row. It needs no latch: the
// encoding goes through a stack buffer, so the result is the only
// allocation.
func pack(row spi.Row) []byte {
	var buf [packBuf]byte
	b := spi.MarshalRow(buf[:0], row)
	p := make([]byte, len(b))
	copy(p, b)
	return p
}

// samePacked reports whether row encodes to exactly the packed row p.
func samePacked(row spi.Row, p []byte) bool {
	var buf [packBuf]byte
	return bytes.Equal(spi.MarshalRow(buf[:0], row), p)
}

// unpack decodes a packed row into a Row the caller owns. Its strings share
// p's bytes, which is safe because a packed row is never modified: writes
// replace it with a new one.
func unpack(p []byte) spi.Row {
	row, _, err := spi.UnmarshalRowShared(p)
	if err != nil {
		panic("storage: corrupt packed row: " + err.Error())
	}
	return row
}

// Schema describes the relation; immutable after construction.
func (t *Table) Schema() *spi.Schema { return t.schema }

// AddIndex creates a secondary index and backfills it from existing rows.
func (t *Table) AddIndex(def spi.IndexDef) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cols := make([]int, len(def.Columns))
	for i, name := range def.Columns {
		c := t.schema.Col(name)
		if c < 0 {
			return fmt.Errorf("storage: index %s: no column %q in %s", def.Name, name, t.schema.Name)
		}
		cols[i] = c
	}
	idx := &secondaryIndex{def: def, cols: cols, tree: NewBTree()}
	for pk, p := range t.rows {
		idx.tree.Set(idx.entryKey(unpack(p), pk), pk)
	}
	t.indexes = append(t.indexes, idx)
	return nil
}

// entryKey builds the index entry key: secondary values then the primary
// key, encoded in one pass so index maintenance costs one allocation.
func (ix *secondaryIndex) entryKey(row spi.Row, pk spi.Key) spi.Key {
	var b strings.Builder
	n := len(pk)
	for _, c := range ix.cols {
		n += spi.KeyLen(row[c])
	}
	b.Grow(n)
	for _, c := range ix.cols {
		spi.AppendKeyVal(&b, row[c])
	}
	b.WriteString(string(pk))
	return spi.Key(b.String())
}

// keepsEntry reports whether two images of a row agree bit for bit on
// every indexed column, so their index entries are equal and an update
// need not build either. Floats compare by bit pattern: -0 and +0 encode
// differently.
func (ix *secondaryIndex) keepsEntry(a, b spi.Row) bool {
	for _, c := range ix.cols {
		x, y := a[c], b[c]
		if x.K != y.K || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Get returns a copy of the row with the given primary key.
func (t *Table) Get(pk spi.Key) (spi.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
	}
	return unpack(p), nil
}

// Exists reports whether a primary key is present.
func (t *Table) Exists(pk spi.Key) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.rows[pk]
	return ok
}

// Insert adds a new row; the primary key must not exist.
func (t *Table) Insert(row spi.Row) error {
	if err := t.schema.CheckRow(row); err != nil {
		return err
	}
	pk := t.schema.KeyOf(row)
	p := pack(row)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.rows[pk]; ok {
		return fmt.Errorf("%w: %s %v", spi.ErrDuplicate, t.schema.Name, t.schema.PKOf(row))
	}
	t.seedVersionLocked(pk, nil)
	t.rows[pk] = p
	for _, ix := range t.indexes {
		ix.tree.Set(ix.entryKey(row, pk), pk)
	}
	return nil
}

// Update replaces the row stored under pk. The new row must have the same
// primary key. It returns the previous image for undo logging.
func (t *Table) Update(pk spi.Key, row spi.Row) (spi.Row, error) {
	if err := t.schema.CheckRow(row); err != nil {
		return nil, err
	}
	if t.schema.KeyOf(row) != pk {
		return nil, fmt.Errorf("storage: update changes primary key of %s", t.schema.Name)
	}
	p := pack(row)
	t.mu.Lock()
	defer t.mu.Unlock()
	oldP, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
	}
	old := unpack(oldP)
	t.seedVersionLocked(pk, old)
	t.rows[pk] = p
	for _, ix := range t.indexes {
		if ix.keepsEntry(old, row) {
			continue
		}
		oldEntry, newEntry := ix.entryKey(old, pk), ix.entryKey(row, pk)
		if oldEntry != newEntry {
			ix.tree.Delete(oldEntry)
			ix.tree.Set(newEntry, pk)
		}
	}
	return old, nil
}

// Delete removes the row under pk, returning the removed image for undo.
func (t *Table) Delete(pk spi.Key) (spi.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	oldP, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
	}
	old := unpack(oldP)
	t.seedVersionLocked(pk, old)
	delete(t.rows, pk)
	for _, ix := range t.indexes {
		ix.tree.Delete(ix.entryKey(old, pk))
	}
	return old, nil
}

// Apply installs a row image directly (used by WAL recovery): a nil row
// deletes pk, otherwise the row is upserted. No index entry is required to
// pre-exist.
func (t *Table) Apply(pk spi.Key, row spi.Row) {
	var p []byte
	if row != nil {
		p = pack(row)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	oldP, had := t.rows[pk]
	var old spi.Row
	if had {
		old = unpack(oldP)
	}
	if row == nil {
		if !had {
			return
		}
		t.seedVersionLocked(pk, old)
		delete(t.rows, pk)
		for _, ix := range t.indexes {
			ix.tree.Delete(ix.entryKey(old, pk))
		}
		return
	}
	t.seedVersionLocked(pk, old)
	t.rows[pk] = p
	for _, ix := range t.indexes {
		if had {
			ix.tree.Delete(ix.entryKey(old, pk))
		}
		ix.tree.Set(ix.entryKey(row, pk), pk)
	}
}

// Scan visits every row (copy) in unspecified order; the visitor returns
// false to stop. The latch is held in read mode for the whole scan.
func (t *Table) Scan(visit func(pk spi.Key, row spi.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pk, p := range t.rows {
		if !visit(pk, unpack(p)) {
			return
		}
	}
}

// IndexScan visits rows whose indexed columns equal eq, in index order.
func (t *Table) IndexScan(indexName string, eq []spi.Value, visit func(pk spi.Key, row spi.Row) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.index(indexName)
	if ix == nil {
		return fmt.Errorf("storage: %s has no index %q", t.schema.Name, indexName)
	}
	prefix := spi.EncodeKey(eq...)
	ix.tree.AscendPrefix(prefix, func(_, pk spi.Key) bool {
		p, ok := t.rows[pk]
		if !ok {
			return true // entry/row race is impossible under the latch; defensive
		}
		return visit(pk, unpack(p))
	})
	return nil
}

// IndexRange visits rows whose index entries fall in [lo, hi) where lo and
// hi are value tuples over the index columns (hi may be nil for unbounded).
func (t *Table) IndexRange(indexName string, lo, hi []spi.Value, visit func(pk spi.Key, row spi.Row) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.index(indexName)
	if ix == nil {
		return fmt.Errorf("storage: %s has no index %q", t.schema.Name, indexName)
	}
	loK := spi.EncodeKey(lo...)
	var hiK spi.Key
	if hi != nil {
		hiK = spi.EncodeKey(hi...)
	}
	ix.tree.Ascend(loK, hiK, func(_, pk spi.Key) bool {
		p, ok := t.rows[pk]
		if !ok {
			return true
		}
		return visit(pk, unpack(p))
	})
	return nil
}

func (t *Table) index(name string) *secondaryIndex {
	for _, ix := range t.indexes {
		if ix.def.Name == name {
			return ix
		}
	}
	return nil
}

// Catalog is the set of tables comprising a database.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Create adds a table for schema; the name must be new.
func (c *Catalog) Create(schema *spi.Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[schema.Name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", schema.Name)
	}
	t := NewTable(schema)
	c.tables[schema.Name] = t
	return t, nil
}

// MustCreate is Create that panics; for statically known schemas.
func (c *Catalog) MustCreate(schema *spi.Schema) *Table {
	t, err := c.Create(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// Names returns the table names in unspecified order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// Store wraps a Catalog as an spi.Store: Create returns the interface type
// and Table converts the catalog's typed nil into an untyped nil interface,
// per the SPI contract.
type Store struct {
	cat Catalog
}

// NewStore returns an empty B+-tree-backed store.
func NewStore() *Store { return &Store{cat: Catalog{tables: make(map[string]*Table)}} }

// Catalog exposes the underlying typed catalog for code that works with the
// default backend directly (its own tests, the recovery CLI).
func (s *Store) Catalog() *Catalog { return &s.cat }

// Create adds a table for schema; the name must be new.
func (s *Store) Create(schema *spi.Schema) (spi.Table, error) {
	t, err := s.cat.Create(schema)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Table returns the named table, or nil.
func (s *Store) Table(name string) spi.Table {
	if t := s.cat.Table(name); t != nil {
		return t
	}
	return nil
}

// Names returns the table names in unspecified order.
func (s *Store) Names() []string { return s.cat.Names() }

// Capabilities reports full support: the B+-tree heap implements real
// version chains.
func (s *Store) Capabilities() spi.Capabilities { return spi.Capabilities{Versions: true} }

func init() {
	spi.Register("btree", func() spi.Store { return NewStore() })
}
