package hyrise

import (
	"reflect"
	"strings"
	"testing"

	"hyrise/internal/benchmark"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func TestFacadeEndToEnd(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()

	if _, err := db.Execute("CREATE TABLE f (a INT NOT NULL, b VARCHAR(10) NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute("INSERT INTO f VALUES (1, 'x'), (2, 'y'), (3, 'x')"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT b, count(*) AS n FROM f GROUP BY b ORDER BY b")
	if err != nil {
		t.Fatal(err)
	}
	got := Rows(res)
	want := [][]string{{"x", "2"}, {"y", "1"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v", got)
	}
	if res.Columns[1] != "n" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestFacadePreparedAndPlans(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE p (v INT NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute("INSERT INTO p VALUES (1), (5), (9)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare("big", "SELECT v FROM p WHERE v > ?"); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecutePrepared("big", []Value{types.Int(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(Rows(res)) != 2 {
		t.Errorf("prepared result = %v", Rows(res))
	}
	unopt, opt, pqp, err := db.Plans("SELECT v FROM p WHERE v = 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unopt, "StoredTable") || !strings.Contains(opt, "Predicate") || !strings.Contains(pqp, "TableScan") {
		t.Errorf("plans:\n%s\n%s\n%s", unopt, opt, pqp)
	}
}

func TestFacadeSessionsAreIsolated(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE s (v INT NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	writer := db.Session()
	if _, err := writer.ExecuteOne("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.ExecuteOne("INSERT INTO s VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// The default session does not see the uncommitted row.
	res, err := db.Query("SELECT count(*) FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if Rows(res)[0][0] != "0" {
		t.Errorf("uncommitted row visible: %v", Rows(res))
	}
	if _, err := writer.ExecuteOne("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query("SELECT count(*) FROM s")
	if Rows(res)[0][0] != "1" {
		t.Errorf("committed row invisible: %v", Rows(res))
	}
}

func TestFacadeTPCHAndBenchmark(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	if err := db.GenerateTPCH(0.001, 1000); err != nil {
		t.Fatal(err)
	}
	queries := TPCHQueries(0.001)
	res, err := db.Query(queries[6])
	if err != nil {
		t.Fatal(err)
	}
	if len(Rows(res)) != 1 {
		t.Errorf("Q6 rows = %v", Rows(res))
	}
	// The benchmark runner works through the facade.
	out := db.RunBenchmark("mini",
		[]benchmark.Item{{Name: "q6", SQL: queries[6]}},
		benchmark.Options{Runs: 2}, nil)
	if len(out.Queries) != 1 || out.Queries[0].Error != "" {
		t.Errorf("benchmark = %+v", out.Queries)
	}
}

func TestFacadeLoadCSV(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "tag", Type: types.TypeString},
	}
	err := db.LoadCSV("csvt", defs, strings.NewReader("1,a\n2,b\n"), 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT tag FROM csvt WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if Rows(res)[0][0] != "b" {
		t.Errorf("csv row = %v", Rows(res))
	}
	// The load seals what it loaded, the short tail chunk included.
	res, err = db.Query("SELECT chunk_id, column_name, encoding FROM meta_segments WHERE table_name = 'csvt' ORDER BY column_id")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Rows(res), [][]string{{"0", "id", "FrameOfReference"}, {"0", "tag", "Dictionary"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("meta_segments = %v, want %v", got, want)
	}
	// A load that fails leaves no table behind.
	if err := db.LoadCSV("bad", defs, strings.NewReader("1,a\noops,b\n"), 100); err == nil {
		t.Fatal("unparsable id loaded")
	}
	if err := db.LoadCSV("bad", defs, strings.NewReader("1,a\n"), 100); err != nil {
		t.Errorf("the name of a failed load is still taken: %v", err)
	}
}

func TestFacadePlugins(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE pl (v INT NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Plugins().Load("encoding_advisor"); err != nil {
		t.Fatal(err)
	}
	if got := db.Plugins().Loaded(); len(got) != 1 {
		t.Errorf("loaded = %v", got)
	}
	// Close unloads everything without error.
}
