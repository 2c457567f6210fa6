package rowengine

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// The row engine must agree with the columnar engine on the full TPC-H
// suite — it is the Figure 6 baseline, so identical semantics matter.
func TestRowEngineAgreesWithColumnarOnTPCH(t *testing.T) {
	const sf = 0.002
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: sf, ChunkSize: 500, UseMvcc: true, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	columnar := pipeline.NewEngine(pipeline.DefaultConfig(), sm)
	t.Cleanup(columnar.Close)
	session := columnar.NewSession()
	rows := NewFromStorage(sm)

	for _, num := range tpch.QueryNumbers() {
		sql := tpch.Queries(sf)[num]
		want, err := session.ExecuteOne(sql)
		if err != nil {
			t.Fatalf("columnar Q%d: %v", num, err)
		}
		got, _, err := rows.Query(sql)
		if err != nil {
			t.Fatalf("rowengine Q%d: %v", num, err)
		}
		wantFlat := canonicalRows(pipeline.ValueRows(want.Table))
		gotFlat := canonicalRows(got)
		if !reflect.DeepEqual(wantFlat, gotFlat) {
			t.Errorf("Q%d: row engine disagrees (%d vs %d rows)", num, len(gotFlat), len(wantFlat))
			if len(wantFlat) < 6 && len(gotFlat) < 6 {
				t.Errorf("  got:  %v\n  want: %v", gotFlat, wantFlat)
			}
		}
	}
}

func canonicalRows(rows [][]types.Value) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		cells := make([]string, len(r))
		for i, v := range r {
			s := v.String()
			if f, err := strconv.ParseFloat(s, 64); err == nil && f == f {
				s = strconv.FormatFloat(f, 'g', 6, 64)
			}
			cells[i] = s
		}
		out = append(out, strings.Join(cells, "|"))
	}
	sort.Strings(out)
	return out
}

func TestRowEngineBasics(t *testing.T) {
	sm := storage.NewStorageManager()
	table := storage.NewTable("t", []storage.ColumnDefinition{
		{Name: "a", Type: types.TypeInt64},
		{Name: "b", Type: types.TypeString},
	}, 10, false)
	for i := 0; i < 20; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i)), types.Str("v")})
	}
	table.SealTail()
	_ = sm.AddTable(table)

	e := NewFromStorage(sm)
	rows, cols, err := e.Query("SELECT a FROM t WHERE a >= 15 ORDER BY a DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "a" {
		t.Errorf("cols = %v", cols)
	}
	if len(rows) != 3 || rows[0][0].I != 19 || rows[2][0].I != 17 {
		t.Errorf("rows = %v", rows)
	}
	// Errors propagate.
	if _, _, err := e.Query("SELECT nope FROM t"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, _, err := e.Query("SELECT * FROM missing"); err == nil {
		t.Error("unknown table should fail")
	}
}
