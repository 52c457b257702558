package storage

import "accdb/internal/spi"

// BTree is an in-memory B+-tree mapping order-preserving encoded keys (Key)
// to encoded primary keys. It backs secondary indexes: index entries encode
// (secondary columns..., primary key columns...) so that duplicate secondary
// values remain unique tree keys, and a range scan over a secondary prefix
// yields primary keys in secondary order.
//
// The tree is not internally synchronized; Table wraps it in the table latch.
type BTree struct {
	root   node
	degree int
	size   int
}

const defaultDegree = 32 // max keys per node = 2*degree - 1

type node interface {
	// keys returns the node's key slice (for invariant checks).
	nkeys() []spi.Key
}

type leaf struct {
	keys []spi.Key
	vals []spi.Key
	next *leaf
	prev *leaf
}

type inner struct {
	keys     []spi.Key // separator keys; len(children) == len(keys)+1
	children []node    // children[i] holds keys < keys[i]; children[len] holds >= last
}

func (l *leaf) nkeys() []spi.Key  { return l.keys }
func (n *inner) nkeys() []spi.Key { return n.keys }

// NewBTree creates an empty tree with the default fan-out.
func NewBTree() *BTree { return NewBTreeDegree(defaultDegree) }

// NewBTreeDegree creates an empty tree with max 2*degree-1 keys per node.
// degree must be at least 2.
func NewBTreeDegree(degree int) *BTree {
	if degree < 2 {
		panic("storage: BTree degree must be >= 2")
	}
	return &BTree{root: &leaf{}, degree: degree}
}

// Len returns the number of entries in the tree.
func (t *BTree) Len() int { return t.size }

func (t *BTree) maxKeys() int { return 2*t.degree - 1 }
func (t *BTree) minKeys() int { return t.degree - 1 }

// Get returns the value stored under key, if present.
func (t *BTree) Get(key spi.Key) (spi.Key, bool) {
	n := t.root
	for {
		switch x := n.(type) {
		case *inner:
			n = x.children[childIndex(x.keys, key)]
		case *leaf:
			i, ok := searchKeys(x.keys, key)
			if !ok {
				return "", false
			}
			return x.vals[i], true
		}
	}
}

// searchKeys binary-searches keys for key; returns (insertion index, found).
func searchKeys(keys []spi.Key, key spi.Key) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == key
}

// childIndex returns which child of an inner node covers key.
func childIndex(keys []spi.Key, key spi.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Set inserts or replaces the value under key. It reports whether the key
// was newly inserted (true) or replaced (false).
func (t *BTree) Set(key spi.Key, val spi.Key) bool {
	newChild, sepKey, inserted := t.insert(t.root, key, val)
	if newChild != nil {
		t.root = &inner{keys: []spi.Key{sepKey}, children: []node{t.root, newChild}}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert descends, splitting full children on the way back up. Returns a
// new right sibling and separator if the node split.
func (t *BTree) insert(n node, key spi.Key, val spi.Key) (node, spi.Key, bool) {
	switch x := n.(type) {
	case *leaf:
		i, found := searchKeys(x.keys, key)
		if found {
			x.vals[i] = val
			return nil, "", false
		}
		x.keys = append(x.keys, "")
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = key
		x.vals = append(x.vals, "")
		copy(x.vals[i+1:], x.vals[i:])
		x.vals[i] = val
		if len(x.keys) > t.maxKeys() {
			right := t.splitLeaf(x)
			return right, right.keys[0], true
		}
		return nil, "", true
	case *inner:
		ci := childIndex(x.keys, key)
		newChild, sep, inserted := t.insert(x.children[ci], key, val)
		if newChild != nil {
			x.keys = append(x.keys, "")
			copy(x.keys[ci+1:], x.keys[ci:])
			x.keys[ci] = sep
			x.children = append(x.children, nil)
			copy(x.children[ci+2:], x.children[ci+1:])
			x.children[ci+1] = newChild
			if len(x.keys) > t.maxKeys() {
				right, rsep := t.splitInner(x)
				return right, rsep, inserted
			}
		}
		return nil, "", inserted
	}
	panic("storage: unknown node type")
}

func (t *BTree) splitLeaf(l *leaf) *leaf {
	mid := len(l.keys) / 2
	right := &leaf{
		keys: append([]spi.Key(nil), l.keys[mid:]...),
		vals: append([]spi.Key(nil), l.vals[mid:]...),
		next: l.next,
		prev: l,
	}
	if l.next != nil {
		l.next.prev = right
	}
	l.keys = l.keys[:mid:mid]
	l.vals = l.vals[:mid:mid]
	l.next = right
	return right
}

func (t *BTree) splitInner(n *inner) (*inner, spi.Key) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &inner{
		keys:     append([]spi.Key(nil), n.keys[mid+1:]...),
		children: append([]node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return right, sep
}

// Delete removes key from the tree, reporting whether it was present.
func (t *BTree) Delete(key spi.Key) bool {
	deleted := t.remove(t.root, key)
	if deleted {
		t.size--
	}
	// Collapse a root inner node with a single child.
	if r, ok := t.root.(*inner); ok && len(r.children) == 1 {
		t.root = r.children[0]
	}
	return deleted
}

// remove deletes key beneath n, rebalancing children that underflow.
func (t *BTree) remove(n node, key spi.Key) bool {
	switch x := n.(type) {
	case *leaf:
		i, found := searchKeys(x.keys, key)
		if !found {
			return false
		}
		x.keys = append(x.keys[:i], x.keys[i+1:]...)
		x.vals = append(x.vals[:i], x.vals[i+1:]...)
		return true
	case *inner:
		ci := childIndex(x.keys, key)
		deleted := t.remove(x.children[ci], key)
		if deleted {
			t.rebalance(x, ci)
		}
		return deleted
	}
	panic("storage: unknown node type")
}

// rebalance fixes up x.children[ci] if it underflowed, borrowing from or
// merging with a sibling.
func (t *BTree) rebalance(x *inner, ci int) {
	child := x.children[ci]
	if len(child.nkeys()) >= t.minKeys() {
		return
	}
	// Prefer borrowing from the left sibling, then right; else merge.
	if ci > 0 && len(x.children[ci-1].nkeys()) > t.minKeys() {
		t.borrowLeft(x, ci)
		return
	}
	if ci < len(x.children)-1 && len(x.children[ci+1].nkeys()) > t.minKeys() {
		t.borrowRight(x, ci)
		return
	}
	if ci > 0 {
		t.merge(x, ci-1)
	} else {
		t.merge(x, ci)
	}
}

func (t *BTree) borrowLeft(x *inner, ci int) {
	switch child := x.children[ci].(type) {
	case *leaf:
		left := x.children[ci-1].(*leaf)
		n := len(left.keys) - 1
		child.keys = append([]spi.Key{left.keys[n]}, child.keys...)
		child.vals = append([]spi.Key{left.vals[n]}, child.vals...)
		left.keys = left.keys[:n]
		left.vals = left.vals[:n]
		x.keys[ci-1] = child.keys[0]
	case *inner:
		left := x.children[ci-1].(*inner)
		n := len(left.keys) - 1
		child.keys = append([]spi.Key{x.keys[ci-1]}, child.keys...)
		child.children = append([]node{left.children[n+1]}, child.children...)
		x.keys[ci-1] = left.keys[n]
		left.keys = left.keys[:n]
		left.children = left.children[:n+1]
	}
}

func (t *BTree) borrowRight(x *inner, ci int) {
	switch child := x.children[ci].(type) {
	case *leaf:
		right := x.children[ci+1].(*leaf)
		child.keys = append(child.keys, right.keys[0])
		child.vals = append(child.vals, right.vals[0])
		right.keys = right.keys[1:]
		right.vals = right.vals[1:]
		x.keys[ci] = right.keys[0]
	case *inner:
		right := x.children[ci+1].(*inner)
		child.keys = append(child.keys, x.keys[ci])
		child.children = append(child.children, right.children[0])
		x.keys[ci] = right.keys[0]
		right.keys = right.keys[1:]
		right.children = right.children[1:]
	}
}

// merge joins x.children[i] and x.children[i+1] into one node.
func (t *BTree) merge(x *inner, i int) {
	switch left := x.children[i].(type) {
	case *leaf:
		right := x.children[i+1].(*leaf)
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
		if right.next != nil {
			right.next.prev = left
		}
	case *inner:
		right := x.children[i+1].(*inner)
		left.keys = append(left.keys, x.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	x.keys = append(x.keys[:i], x.keys[i+1:]...)
	x.children = append(x.children[:i+1], x.children[i+2:]...)
}

// Ascend visits entries with lo <= key < hi in key order; an empty hi means
// unbounded. The visitor returns false to stop early. Ascend reports whether
// the scan ran to completion.
func (t *BTree) Ascend(lo, hi spi.Key, visit func(key, val spi.Key) bool) bool {
	n := t.root
	for {
		x, ok := n.(*inner)
		if !ok {
			break
		}
		n = x.children[childIndex(x.keys, lo)]
	}
	l := n.(*leaf)
	i, _ := searchKeys(l.keys, lo)
	for l != nil {
		for ; i < len(l.keys); i++ {
			if hi != "" && l.keys[i] >= hi {
				return true
			}
			if !visit(l.keys[i], l.vals[i]) {
				return false
			}
		}
		l = l.next
		i = 0
	}
	return true
}

// AscendPrefix visits all entries whose key begins with prefix.
func (t *BTree) AscendPrefix(prefix spi.Key, visit func(key, val spi.Key) bool) bool {
	return t.Ascend(prefix, prefixEnd(prefix), visit)
}

// prefixEnd computes the smallest key greater than every key with the given
// prefix, by incrementing the last non-0xFF byte.
func prefixEnd(prefix spi.Key) spi.Key {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xFF {
			b[i]++
			return spi.Key(b[:i+1])
		}
	}
	return "" // prefix is all 0xFF: unbounded
}

// checkInvariants validates B+-tree structural invariants; used by tests.
func (t *BTree) checkInvariants() error {
	count, _, err := t.check(t.root, true, "", "")
	if err != nil {
		return err
	}
	if count != t.size {
		return errf("size mismatch: counted %d, size %d", count, t.size)
	}
	return nil
}

func (t *BTree) check(n node, isRoot bool, lo, hi spi.Key) (int, int, error) {
	switch x := n.(type) {
	case *leaf:
		if !isRoot && len(x.keys) < t.minKeys() {
			return 0, 0, errf("leaf underflow: %d keys", len(x.keys))
		}
		if len(x.keys) != len(x.vals) {
			return 0, 0, errf("leaf keys/vals mismatch")
		}
		for i, k := range x.keys {
			if i > 0 && x.keys[i-1] >= k {
				return 0, 0, errf("leaf keys out of order")
			}
			if k < lo || (hi != "" && k >= hi) {
				return 0, 0, errf("leaf key out of range")
			}
		}
		return len(x.keys), 0, nil
	case *inner:
		if !isRoot && len(x.keys) < t.minKeys() {
			return 0, 0, errf("inner underflow: %d keys", len(x.keys))
		}
		if len(x.children) != len(x.keys)+1 {
			return 0, 0, errf("inner fan-out mismatch")
		}
		total, depth := 0, -1
		for i, c := range x.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = x.keys[i-1]
			}
			if i < len(x.keys) {
				chi = x.keys[i]
			}
			cnt, d, err := t.check(c, false, clo, chi)
			if err != nil {
				return 0, 0, err
			}
			if depth == -1 {
				depth = d
			} else if d != depth {
				return 0, 0, errf("uneven leaf depth")
			}
			total += cnt
		}
		return total, depth + 1, nil
	}
	return 0, 0, errf("unknown node type")
}

type treeError string

func (e treeError) Error() string { return string(e) }

func errf(format string, args ...any) error {
	return treeError(sprintf(format, args...))
}
