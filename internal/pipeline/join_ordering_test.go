package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// joinGraphTables is the largest join graph the test builds.
const joinGraphTables = 14

// joinGraphSQL writes a join over the tables perm names, in that order: each
// table joins the ones before it of its component by an ON clause equating one
// of its unique keys (a or b) to any key of a random earlier table (a random
// spanning tree), so the tree keeps exactly one row per row of its first
// table; one query in two adds a second equality (a cycle). Components are
// cross-joined by commas. The select list names every table's row id in table
// order, so the rows identify each joined tuple and the optimizer's reordering
// must be undone.
func joinGraphSQL(rng *rand.Rand, perm []int, components int) string {
	anyKey := []string{"a", "b", "c"}
	edge := func(k int, part []int) string {
		return fmt.Sprintf("t%d.%s = t%d.%s", part[rng.Intn(k)], anyKey[rng.Intn(3)], part[k], anyKey[rng.Intn(2)])
	}
	cycleAt := -1
	if rng.Intn(2) == 0 {
		cycleAt = 2 + rng.Intn(len(perm)/components-1)
	}
	items := make([]string, len(perm))
	for i := range items {
		items[i] = fmt.Sprintf("t%d.v", i)
	}
	var from []string
	size := (len(perm) + components - 1) / components
	for lo := 0; lo < len(perm); lo += size {
		part := perm[lo:min(lo+size, len(perm))]
		ref := fmt.Sprintf("t%d", part[0])
		for k := 1; k < len(part); k++ {
			on := edge(k, part)
			if k == cycleAt {
				on += " AND " + edge(k, part)
			}
			ref += fmt.Sprintf(" JOIN t%d ON %s", part[k], on)
		}
		from = append(from, ref)
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM " + strings.Join(from, ", ")
}

// TestDiffJoinOrderingLargeGraphs: the join orderer's fallbacks return the
// rows of the plan as written. Connected graphs of 11–14 relations are past
// DPccp's bound and go to the greedy pairing; graphs of two components are
// cross-joined by DPccp's component join up to 10 relations and by the greedy
// pairing above. Each query's rows under the optimizer equal its rows under
// UseOptimizer: false, which joins in the order the query names.
func TestDiffJoinOrderingLargeGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sm := storage.NewStorageManager()
	defs := []storage.ColumnDefinition{
		{Name: "v", Type: types.TypeInt64},
		{Name: "a", Type: types.TypeInt64},
		{Name: "b", Type: types.TypeInt64},
		{Name: "c", Type: types.TypeInt64},
	}
	// Ten rows: a and b are permutations of 0..9, c repeats values of 0..4.
	for i := 0; i < joinGraphTables; i++ {
		table := storage.NewTable(fmt.Sprintf("t%d", i), defs, 4, false)
		a, b := rng.Perm(10), rng.Perm(10)
		for v := 0; v < 10; v++ {
			row := []types.Value{types.Int(int64(v)), types.Int(int64(a[v])), types.Int(int64(b[v])), types.Int(rng.Int63n(5))}
			if _, err := table.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := sm.AddTable(table); err != nil {
			t.Fatal(err)
		}
	}
	engines := map[bool]*Engine{}
	for _, optimize := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.UseMvcc, cfg.UseOptimizer = false, optimize
		engines[optimize] = NewEngine(cfg, sm)
		t.Cleanup(engines[optimize].Close)
	}
	rows := func(optimize bool, sql string) []string {
		res, err := engines[optimize].NewSession().ExecuteOne(sql)
		if err != nil {
			t.Fatalf("optimizer=%v %s: %v", optimize, sql, err)
		}
		return canonical(ValueRows(res.Table))
	}
	var queries []string
	for n := 11; n <= joinGraphTables; n++ {
		for k := 0; k < 4; k++ {
			queries = append(queries, joinGraphSQL(rng, rng.Perm(n), 1))
		}
	}
	for n := 4; n <= joinGraphTables; n++ {
		queries = append(queries, joinGraphSQL(rng, rng.Perm(n), 2))
	}
	nonEmpty := 0
	for _, sql := range queries {
		want := rows(false, sql)
		if got := rows(true, sql); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s:\noptimized %d rows %.300v\nas written %d rows %.300v", sql, len(got), got, len(want), want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	// Empty results would compare equal under any join order.
	if nonEmpty < len(queries)/2 {
		t.Errorf("only %d of %d queries return rows", nonEmpty, len(queries))
	}
}
