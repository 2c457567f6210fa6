package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// TestDiffSemiJoinPlacement: random IN, NOT IN and correlated [NOT] EXISTS
// predicates over joins of two to four tables answer what the row
// engine answers, on every engine configuration (scheduler off and on), and
// the optimizer does move some of their semi- and anti-joins below an inner
// join, so the placements are what is being checked.
func TestDiffSemiJoinPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	sm := storage.NewStorageManager()
	// t0..t3: id INT NOT NULL (unique), k INT (NULL every 9th row), v INT;
	// s: sk INT NOT NULL, sn INT (NULL every 5th row), sv INT.
	sizes := []int{60, 12, 35, 8}
	for ti, n := range sizes {
		defs := []storage.ColumnDefinition{
			{Name: "id", Type: types.TypeInt64},
			{Name: "k", Type: types.TypeInt64, Nullable: true},
			{Name: "v", Type: types.TypeInt64},
		}
		table := storage.NewTable(fmt.Sprintf("t%d", ti), defs, 16, false)
		for i := 0; i < n; i++ {
			k := types.Value(types.Int(int64(rng.Intn(12))))
			if i%9 == 4 {
				k = types.NullValue
			}
			if _, err := table.AppendRow([]types.Value{types.Int(int64(i)), k, types.Int(int64(rng.Intn(20)))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sm.AddTable(table); err != nil {
			t.Fatal(err)
		}
	}
	s := storage.NewTable("s", []storage.ColumnDefinition{
		{Name: "sk", Type: types.TypeInt64},
		{Name: "sn", Type: types.TypeInt64, Nullable: true},
		{Name: "sv", Type: types.TypeInt64},
	}, 16, false)
	for i := 0; i < 25; i++ {
		sn := types.Value(types.Int(int64(rng.Intn(12))))
		if i%5 == 2 {
			sn = types.NullValue
		}
		if _, err := s.AppendRow([]types.Value{types.Int(int64(rng.Intn(40))), sn, types.Int(int64(rng.Intn(20)))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sm.AddTable(s); err != nil {
		t.Fatal(err)
	}
	engines := comparisonEngines(t, sm)
	oracle := rowengine.NewFromStorage(sm)

	placed := 0
	for q := 0; q < 80; q++ {
		// A chain of joins over 2-4 tables, t_i.k = t_{i+1}.id, mostly
		// inner; a left join, which the placement must not pass, now and
		// then.
		n := 2 + rng.Intn(3)
		perm := rng.Perm(4)[:n]
		from := fmt.Sprintf("t%d a0", perm[0])
		for i := 1; i < n; i++ {
			if rng.Intn(4) == 0 {
				from += fmt.Sprintf(" LEFT JOIN t%d a%d ON a%d.k = a%d.id", perm[i], i, i-1, i)
				continue
			}
			from += fmt.Sprintf(" JOIN t%d a%d ON a%d.k = a%d.id", perm[i], i, i-1, i)
		}
		a, b := rng.Intn(n), rng.Intn(n)
		colA := fmt.Sprintf("a%d.%s", a, []string{"id", "k", "v"}[rng.Intn(3)])
		var pred string
		switch rng.Intn(5) {
		case 0:
			pred = fmt.Sprintf("%s IN (SELECT sk FROM s WHERE sv < %d)", colA, rng.Intn(20))
		case 1:
			pred = fmt.Sprintf("%s NOT IN (SELECT sk FROM s WHERE sv >= %d)", fmt.Sprintf("a%d.id", a), rng.Intn(20))
		case 2:
			pred = fmt.Sprintf("%s NOT IN (SELECT sn FROM s)", colA)
		case 3:
			pred = fmt.Sprintf("EXISTS (SELECT 1 FROM s WHERE s.sn = %s AND s.sv > a%d.v)", colA, b)
		default:
			pred = fmt.Sprintf("NOT EXISTS (SELECT 1 FROM s WHERE s.sk = %s AND s.sv <> a%d.v)", colA, b)
		}
		sql := fmt.Sprintf("SELECT a0.id, a%d.id, a%d.v FROM %s WHERE %s", n-1, b, from, pred)
		agree(t, engines, oracle, sql)
		ex, err := engines["default"].NewSession().Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if semiJoinUnderInnerJoin(ex.Text) {
			placed++
		}
	}
	if placed < 10 {
		t.Errorf("only %d of 80 plans put a semi- or anti-join below an inner join", placed)
	}
}

// semiJoinUnderInnerJoin reports whether an EXPLAIN plan has a semi- or
// anti-join below an inner join: a parent is the nearest line above with
// less indentation.
func semiJoinUnderInnerJoin(plan string) bool {
	lines := strings.Split(plan, "\n")
	indent := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
	for i, l := range lines {
		op := strings.TrimSpace(l)
		if !strings.HasPrefix(op, "HashJoin(Semi") && !strings.HasPrefix(op, "HashJoin(Anti") {
			continue
		}
		for d, j := indent(l), i-1; j >= 0 && d > 0; j-- {
			if indent(lines[j]) < d {
				if strings.HasPrefix(strings.TrimSpace(lines[j]), "HashJoin(Inner") {
					return true
				}
				d = indent(lines[j])
			}
		}
	}
	return false
}

// TestTPCHSemiJoinPlacement: Q18's IN lands on orders, below both of its
// inner joins, so the join with lineitem lists a handful of pairs instead of
// every line item; Q21's EXISTS and NOT EXISTS stay above the joins, whose
// result is smaller than the line items they would move onto.
func TestTPCHSemiJoinPlacement(t *testing.T) {
	_, s := newTPCHParityEngine(t)
	queries := tpch.Queries(tpchParitySF)
	for _, c := range []struct {
		q      int
		placed bool
	}{{18, true}, {21, false}} {
		ex, err := s.Explain(queries[c.q])
		if err != nil {
			t.Fatalf("Q%d: %v", c.q, err)
		}
		if got := semiJoinUnderInnerJoin(ex.Text); got != c.placed {
			t.Errorf("Q%d: a semi-join below an inner join = %v, want %v\n%s", c.q, got, c.placed, ex.Text)
		}
	}
	ex, err := s.Explain(queries[18])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range ex.Trace.OpSpans() {
		if strings.HasPrefix(sp.Name, "HashJoin(Inner, orders.o_orderkey = lineitem.l_orderkey)") {
			found = true
			if sp.Attrs["pairs"] > 100 {
				t.Errorf("Q18: %s lists %d pairs, want <= 100", sp.Name, sp.Attrs["pairs"])
			}
		}
	}
	if !found {
		t.Errorf("Q18: no orders-lineitem hash join in the plan\n%s", ex.Text)
	}
}
