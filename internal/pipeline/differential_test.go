package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestRandomQueriesDifferential generates random (but valid) SQL queries
// and cross-checks the columnar engine against the independent row engine —
// a differential oracle over the whole stack: parser, translator,
// optimizer, and both executors.
func TestRandomQueriesDifferential(t *testing.T) {
	sm := storage.NewStorageManager()
	rng := rand.New(rand.NewSource(99))

	// Two joinable tables with nullable columns and duplicates.
	ta := storage.NewTable("ta", []storage.ColumnDefinition{
		{Name: "a_id", Type: types.TypeInt64},
		{Name: "a_grp", Type: types.TypeInt64},
		{Name: "a_val", Type: types.TypeFloat64, Nullable: true},
		{Name: "a_tag", Type: types.TypeString},
	}, 37, false)
	for i := 0; i < 500; i++ {
		val := types.Float(float64(rng.Intn(100)) / 4)
		if rng.Intn(10) == 0 {
			val = types.NullValue
		}
		_, _ = ta.AppendRow([]types.Value{
			types.Int(int64(i)),
			types.Int(int64(rng.Intn(20))),
			val,
			types.Str(fmt.Sprintf("tag%02d", rng.Intn(8))),
		})
	}
	ta.SealTail()
	_ = sm.AddTable(ta)

	tb := storage.NewTable("tb", []storage.ColumnDefinition{
		{Name: "b_grp", Type: types.TypeInt64},
		{Name: "b_name", Type: types.TypeString},
	}, 16, false)
	for i := 0; i < 25; i++ {
		_, _ = tb.AppendRow([]types.Value{
			types.Int(int64(rng.Intn(22))),
			types.Str(fmt.Sprintf("name%d", i%5)),
		})
	}
	tb.SealTail()
	_ = sm.AddTable(tb)

	cfg := DefaultConfig()
	cfg.UseMvcc = false
	columnar := NewEngine(cfg, sm)
	t.Cleanup(columnar.Close)
	session := columnar.NewSession()
	rows := rowengine.NewFromStorage(sm)

	preds := []string{
		"a_id < %d", "a_grp = %d", "a_val > %d.5", "a_val IS NULL",
		"a_tag = 'tag0%d'", "a_id BETWEEN %d AND 400", "a_grp <> %d",
		"a_tag LIKE 'tag0%%' AND a_id >= %d", "a_val IS NOT NULL AND a_grp < %d",
	}
	shapes := []string{
		"SELECT a_id, a_tag FROM ta WHERE %s",
		"SELECT a_grp, count(*), sum(a_val), min(a_tag) FROM ta WHERE %s GROUP BY a_grp",
		"SELECT a_tag, avg(a_val) FROM ta WHERE %s GROUP BY a_tag ORDER BY a_tag",
		"SELECT a_id, b_name FROM ta, tb WHERE a_grp = b_grp AND %s",
		"SELECT b_name, count(*) FROM ta JOIN tb ON a_grp = b_grp WHERE %s GROUP BY b_name",
		"SELECT DISTINCT a_grp FROM ta WHERE %s ORDER BY a_grp LIMIT 7",
		"SELECT a_id FROM ta WHERE a_grp IN (SELECT b_grp FROM tb) AND %s",
		"SELECT a_id FROM ta WHERE %s AND a_val > (SELECT avg(a_val) FROM ta)",
	}

	const trials = 60
	for trial := 0; trial < trials; trial++ {
		template := preds[rng.Intn(len(preds))]
		var pred string
		if strings.Contains(template, "%d") {
			pred = fmt.Sprintf(template, rng.Intn(9))
		} else {
			pred = strings.ReplaceAll(template, "%%", "%")
		}
		sql := fmt.Sprintf(shapes[rng.Intn(len(shapes))], pred)

		colRes, err := session.ExecuteOne(sql)
		if err != nil {
			t.Fatalf("columnar %q: %v", sql, err)
		}
		rowRes, _, err := rows.Query(sql)
		if err != nil {
			t.Fatalf("rowengine %q: %v", sql, err)
		}
		got := canonical(ValueRows(colRes.Table))
		want := canonical(rowRes)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("divergence on %q:\n  columnar %d rows, rowengine %d rows", sql, len(got), len(want))
			if len(got) < 8 && len(want) < 8 {
				t.Errorf("  columnar:  %v\n  rowengine: %v", got, want)
			}
		}
	}
}

func canonical(rows [][]types.Value) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		cells := make([]string, len(r))
		for i, v := range r {
			s := v.String()
			if v.Type == types.TypeFloat64 {
				s = fmt.Sprintf("%.6g", v.F)
			}
			cells[i] = s
		}
		out = append(out, strings.Join(cells, "|"))
	}
	sort.Strings(out)
	return out
}
