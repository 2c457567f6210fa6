package hyrise

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyrise/internal/benchmark"
	"hyrise/internal/pgclient"
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
	// Every planned statement kind prints its plans without running.
	for sql, want := range map[string][2]string{
		"SELECT 1":                       {"DummyTable", "DummyTable"},
		"INSERT INTO p VALUES (4)":       {"Insert(p, 1 rows)", "Insert(p, 1 rows)"},
		"UPDATE p SET v = 2 WHERE v = 1": {"Update(p)", "Update(p)"},
		"DELETE FROM p WHERE v = 1":      {"Delete(p)", "Delete(p)"},
	} {
		unopt, opt, pqp, err := db.Plans(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !strings.Contains(unopt, want[0]) || !strings.Contains(opt, want[0]) || !strings.Contains(pqp, want[1]) {
			t.Errorf("%s plans:\n%s\n%s\n%s", sql, unopt, opt, pqp)
		}
	}
	if got := Rows(mustQuery(t, db, "SELECT v FROM p ORDER BY v")); !reflect.DeepEqual(got, [][]string{{"1"}, {"5"}, {"9"}}) {
		t.Errorf("printing plans changed the table: %v", got)
	}
}

func mustQuery(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// TestFacadeExecuteContext: a statement under a live context runs; under a
// canceled one it fails with context.Canceled and its writes roll back.
func TestFacadeExecuteContext(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	if _, err := db.ExecuteContext(context.Background(), "CREATE TABLE c (a INT NOT NULL); INSERT INTO c VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecuteContext(ctx, "INSERT INTO c VALUES (3)"); !errors.Is(err, context.Canceled) {
		t.Fatalf("INSERT under a canceled context: %v, want context.Canceled", err)
	}
	if got := Rows(mustQuery(t, db, "SELECT count(*) FROM c")); got[0][0] != "2" {
		t.Errorf("count after the canceled INSERT = %v, want 2", got)
	}
}

// TestFacadeExplainAndMetrics: Explain runs the statement and annotates its
// plan; the statement shows in the registry Metrics returns.
func TestFacadeExplainAndMetrics(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE e (a INT NOT NULL); INSERT INTO e VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	before, _ := db.Metrics().Get("statements_executed")
	ex, err := db.Explain("SELECT a FROM e WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(Rows(ex.Result)) != 2 || !strings.Contains(ex.Text, "TableScan") {
		t.Errorf("explain rows %v, text:\n%s", Rows(ex.Result), ex.Text)
	}
	if after, _ := db.Metrics().Get("statements_executed"); after != before+1 {
		t.Errorf("statements_executed %d → %d, want one more", before, after)
	}
}

// TestFacadeServerOverTCP: a server from NewServer answers a PostgreSQL client
// over loopback TCP and drains on Shutdown.
func TestFacadeServerOverTCP(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE s (a INT NOT NULL); INSERT INTO s VALUES (4), (2)"); err != nil {
		t.Fatal(err)
	}
	srv := db.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	conn, err := pgclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.SimpleQuery("SELECT a FROM s ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 2 || string(res[0].Rows[0][0]) != "2" || string(res[0].Rows[1][0]) != "4" {
		t.Errorf("result over the wire: %+v", res)
	}
	_ = conn.Close()
	srv.Shutdown(5 * time.Second)
	<-served
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
