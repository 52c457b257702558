package assertion

import (
	"strings"
	"testing"
	"testing/quick"

	"accdb/internal/spi"
	"accdb/internal/storage"
)

// fixture: accounts(id, owner, balance) and holds(owner, total).
func fixture(t *testing.T) spi.Store {
	t.Helper()
	cat := storage.NewStore()
	acc, err := cat.Create(spi.MustSchema("accounts", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "owner", Kind: spi.KindString},
		{Name: "balance", Kind: spi.KindInt},
	}, "id"))
	if err != nil {
		t.Fatal(err)
	}
	rows := []spi.Row{
		{spi.I64(1), spi.Str("ann"), spi.I64(100)},
		{spi.I64(2), spi.Str("ann"), spi.I64(50)},
		{spi.I64(3), spi.Str("bob"), spi.I64(-20)},
	}
	for _, r := range rows {
		if err := acc.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func eval(t *testing.T, e Expr, cat spi.Store, env Env) bool {
	t.Helper()
	got, err := Eval(e, cat, env)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return got
}

func TestCmpOperators(t *testing.T) {
	cat := fixture(t)
	cases := []struct {
		op   CmpOp
		l, r int64
		want bool
	}{
		{EQ, 1, 1, true}, {EQ, 1, 2, false},
		{NE, 1, 2, true}, {NE, 2, 2, false},
		{LT, 1, 2, true}, {LT, 2, 2, false},
		{LE, 2, 2, true}, {LE, 3, 2, false},
		{GT, 3, 2, true}, {GT, 2, 2, false},
		{GE, 2, 2, true}, {GE, 1, 2, false},
	}
	for _, c := range cases {
		e := Cmp{Op: c.op, L: I64(c.l), R: I64(c.r)}
		if got := eval(t, e, cat, nil); got != c.want {
			t.Errorf("%s = %v, want %v", e, got, c.want)
		}
	}
}

func TestLogicalConnectives(t *testing.T) {
	cat := fixture(t)
	tr := Cmp{Op: EQ, L: I64(1), R: I64(1)}
	fa := Cmp{Op: EQ, L: I64(1), R: I64(2)}
	if !eval(t, And{[]Expr{tr, tr}}, cat, nil) || eval(t, And{[]Expr{tr, fa}}, cat, nil) {
		t.Error("And broken")
	}
	if !eval(t, Or{[]Expr{fa, tr}}, cat, nil) || eval(t, Or{[]Expr{fa, fa}}, cat, nil) {
		t.Error("Or broken")
	}
	if !eval(t, Not{fa}, cat, nil) || eval(t, Not{tr}, cat, nil) {
		t.Error("Not broken")
	}
}

func TestQuantifiers(t *testing.T) {
	cat := fixture(t)
	// ∀ accounts: balance >= -20 — true.
	all := ForAll{Table: "accounts", Body: Cmp{
		Op: GE, L: Col{"accounts", "balance"}, R: I64(-20),
	}}
	if !eval(t, all, cat, nil) {
		t.Error("ForAll should hold")
	}
	// ∀ accounts: balance >= 0 — false (bob).
	pos := ForAll{Table: "accounts", Body: Cmp{
		Op: GE, L: Col{"accounts", "balance"}, R: I64(0),
	}}
	if eval(t, pos, cat, nil) {
		t.Error("ForAll should fail on bob")
	}
	// Bounded ∀: ann's accounts are all positive.
	annPos := ForAll{
		Table: "accounts",
		Where: []Binding{{Column: "owner", Value: Const{spi.Str("ann")}}},
		Body:  Cmp{Op: GT, L: Col{"accounts", "balance"}, R: I64(0)},
	}
	if !eval(t, annPos, cat, nil) {
		t.Error("bounded ForAll should hold")
	}
	// ∃ an account with balance 50.
	ex := Exists{Table: "accounts", Body: Cmp{
		Op: EQ, L: Col{"accounts", "balance"}, R: I64(50),
	}}
	if !eval(t, ex, cat, nil) {
		t.Error("Exists should hold")
	}
	// Plain existence with binding.
	if !eval(t, Exists{Table: "accounts", Where: []Binding{{Column: "owner", Value: Const{spi.Str("bob")}}}}, cat, nil) {
		t.Error("plain Exists should hold")
	}
	if eval(t, Exists{Table: "accounts", Where: []Binding{{Column: "owner", Value: Const{spi.Str("eve")}}}}, cat, nil) {
		t.Error("Exists for eve should fail")
	}
	// ForAll over an empty range is vacuously true.
	if !eval(t, ForAll{
		Table: "accounts",
		Where: []Binding{{Column: "owner", Value: Const{spi.Str("eve")}}},
		Body:  Cmp{Op: EQ, L: I64(1), R: I64(2)},
	}, cat, nil) {
		t.Error("vacuous ForAll should hold")
	}
}

func TestCountAndSum(t *testing.T) {
	cat := fixture(t)
	if !eval(t, CountEq{
		Table:  "accounts",
		Where:  []Binding{{Column: "owner", Value: Const{spi.Str("ann")}}},
		Equals: I64(2),
	}, cat, nil) {
		t.Error("CountEq should hold")
	}
	if eval(t, CountEq{Table: "accounts", Equals: I64(2)}, cat, nil) {
		t.Error("unbounded CountEq should be 3")
	}
	if !eval(t, SumLE{
		Table: "accounts", Column: "balance", Max: I64(130),
	}, cat, nil) {
		t.Error("SumLE 130 should hold (sum=130)")
	}
	if eval(t, SumLE{Table: "accounts", Column: "balance", Max: I64(129)}, cat, nil) {
		t.Error("SumLE 129 should fail")
	}
}

func TestParams(t *testing.T) {
	cat := fixture(t)
	e := Exists{
		Table: "accounts",
		Where: []Binding{{Column: "owner", Value: Param{"who"}}},
	}
	if !eval(t, e, cat, Env{"who": spi.Str("ann")}) {
		t.Error("param binding failed")
	}
	if _, err := Eval(e, cat, nil); err == nil {
		t.Error("unbound param accepted")
	}
}

func TestEvalErrors(t *testing.T) {
	cat := fixture(t)
	if _, err := Eval(Exists{Table: "nope"}, cat, nil); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := Eval(ForAll{Table: "accounts", Body: Cmp{
		Op: EQ, L: Col{"accounts", "nope"}, R: I64(1),
	}}, cat, nil); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := Eval(Cmp{Op: EQ, L: Col{"accounts", "balance"}, R: I64(1)}, cat, nil); err == nil {
		t.Error("column outside quantifier accepted")
	}
	if _, err := Eval(Exists{Table: "accounts", Where: []Binding{{Column: "ghost", Value: I64(1)}}}, cat, nil); err == nil {
		t.Error("binding on missing column accepted")
	}
}

func TestNestedQuantifierBinding(t *testing.T) {
	cat := fixture(t)
	// ∀ a in accounts: ∃ b in accounts with same owner and balance >= a's —
	// true (each owner's max account witnesses).
	e := ForAll{Table: "accounts", Body: Exists{
		Table: "accounts", // shadowing the same table inside
		Where: []Binding{},
		Body:  Cmp{Op: GE, L: Col{"accounts", "balance"}, R: I64(-20)},
	}}
	if !eval(t, e, cat, nil) {
		t.Error("nested quantifier evaluation failed")
	}
}

func TestCountEqQuick(t *testing.T) {
	// Property: CountEq(owner=X, n) holds iff exactly n rows match.
	cat := fixture(t)
	counts := map[string]int64{"ann": 2, "bob": 1, "eve": 0}
	f := func(pick uint8, n int8) bool {
		owners := []string{"ann", "bob", "eve"}
		owner := owners[int(pick)%3]
		want := counts[owner] == int64(n)
		got, err := Eval(CountEq{
			Table:  "accounts",
			Where:  []Binding{{Column: "owner", Value: Const{spi.Str(owner)}}},
			Equals: I64(int64(n)),
		}, cat, nil)
		return err == nil && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	e := ForAll{
		Table: "orders",
		Body: CountEq{
			Table:  "orderlines",
			Where:  []Binding{{Column: "order_id", Value: Col{"orders", "order_id"}}},
			Equals: Col{"orders", "n"},
		},
	}
	s := e.String()
	for _, frag := range []string{"∀ orders", "orderlines", "order_id=orders.order_id"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	cmp := Cmp{Op: LE, L: Param{"x"}, R: I64(3)}
	if cmp.String() != "$x ≤ 3" {
		t.Errorf("Cmp string = %q", cmp.String())
	}
}

func TestFootprintExtraction(t *testing.T) {
	e := And{[]Expr{
		ForAll{
			Table: "orders",
			Where: []Binding{{Column: "region", Value: Param{"r"}}},
			Body: CountEq{
				Table:  "orderlines",
				Where:  []Binding{{Column: "order_id", Value: Col{"orders", "order_id"}}},
				Equals: Col{"orders", "n_items"},
			},
		},
		SumLE{Table: "stock", Column: "level", Max: I64(100)},
		Not{Exists{Table: "audit"}},
	}}
	fp := FootprintOf(e)
	wantTables := []string{"audit", "orderlines", "orders", "stock"}
	got := fp.Tables()
	if len(got) != len(wantTables) {
		t.Fatalf("Tables() = %v", got)
	}
	for i := range wantTables {
		if got[i] != wantTables[i] {
			t.Fatalf("Tables() = %v, want %v", got, wantTables)
		}
	}
	for table, col := range map[string]string{
		"orders":     "region",
		"orderlines": "order_id",
		"stock":      "level",
	} {
		if !fp.Columns[table][col] {
			t.Errorf("footprint missing %s.%s", table, col)
		}
	}
	if !fp.Columns["orders"]["n_items"] || !fp.Columns["orders"]["order_id"] {
		t.Error("column references through terms missing")
	}
	for _, q := range []string{"orders", "orderlines", "stock", "audit"} {
		if !fp.Quantified[q] {
			t.Errorf("%s should be quantified", q)
		}
	}
}
