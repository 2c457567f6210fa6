package hyrise

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"hyrise/internal/pgclient"
	"hyrise/internal/pipeline"
)

// metaColumns is every meta table's columns in order, as "name TYPE".
var metaColumns = map[string][]string{
	"meta_tables": {"table_name VARCHAR", "row_count INT", "chunk_count INT", "column_count INT",
		"target_chunk_size INT", "data_bytes INT", "mvcc_bytes INT", "metadata_bytes INT"},
	"meta_segments": {"table_name VARCHAR", "chunk_id INT", "column_id INT", "column_name VARCHAR",
		"column_type VARCHAR", "encoding VARCHAR", "rows INT", "size_bytes INT", "zone_min VARCHAR",
		"zone_max VARCHAR", "ascending VARCHAR", "value_compression VARCHAR", "vector_compression VARCHAR"},
	"meta_metrics": {"name VARCHAR", "kind VARCHAR", "value INT"},
	"meta_active_queries": {"id INT", "session_id INT", "backend_pid INT", "state VARCHAR",
		"elapsed_us INT", "rows INT", "sql VARCHAR", "fingerprint VARCHAR"},
	"meta_statement_stats": {"query VARCHAR", "calls INT", "errors INT", "rows INT", "cache_hits INT",
		"total_us INT", "mean_us INT", "p95_us INT", "max_us INT"},
	"meta_column_scans": {"table_name VARCHAR", "column_name VARCHAR", "scans INT", "pruned INT",
		"sorted INT", "index INT", "encoded INT", "unencoded INT", "fallback INT", "point_predicates INT",
		"range_predicates INT", "rows_in INT", "rows_out INT"},
	"meta_replication": {"role VARCHAR", "peer VARCHAR", "state VARCHAR", "applied_lsn INT",
		"end_lsn INT", "applied_cid INT", "primary_cid INT", "lag_bytes INT", "lag_ns INT"},
	"meta_executor_pool": {"queue VARCHAR", "slots INT", "waiting INT", "submitted INT",
		"executed INT", "rejected INT", "wait_ns INT"},
}

// wireTypes names the pgwire type OIDs of the meta tables' SQL types.
var wireTypes = map[uint32]string{20: "INT", 25: "VARCHAR"}

// TestRouteMetaTables reads every meta table on every route that answers it
// and checks its columns: a bare engine answers the engine's own tables, a
// facade database adds meta_replication (standalone, primary or replica), and
// a served database adds meta_executor_pool, empty until the pool is on.
func TestRouteMetaTables(t *testing.T) {
	all := make([]string, 0, len(metaColumns))
	for name := range metaColumns {
		all = append(all, name)
	}
	slices.Sort(all)
	without := func(drop ...string) []string {
		return slices.DeleteFunc(slices.Clone(all), func(n string) bool { return slices.Contains(drop, n) })
	}

	engine := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	defer engine.Close()
	standalone := Open(DefaultConfig())
	defer standalone.Close()
	primary, err := OpenErr(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := primary.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, primary, replica)

	for _, route := range []struct {
		name    string
		session *pipeline.Session
		tables  []string
		role    string // meta_replication's one row
	}{
		{"pipeline", engine.NewSession(), without("meta_replication", "meta_executor_pool"), ""},
		{"standalone", standalone.Session(), without("meta_executor_pool"), "standalone"},
		{"primary", primary.Session(), without("meta_executor_pool"), "primary"},
		{"replica", replica.Session(), without("meta_executor_pool"), "replica"},
	} {
		for _, table := range all {
			res, err := route.session.ExecuteOne("SELECT * FROM " + table)
			if !slices.Contains(route.tables, table) {
				if err == nil {
					t.Errorf("%s: %s answered; no one registered it", route.name, table)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", route.name, table, err)
			}
			var got []string
			for _, d := range res.Table.ColumnDefinitions() {
				got = append(got, d.Name+" "+d.Type.String())
			}
			if !reflect.DeepEqual(got, metaColumns[table]) {
				t.Errorf("%s: %s columns = %q, want %q", route.name, table, got, metaColumns[table])
			}
			if rows := Rows(res); table == "meta_replication" && (len(rows) != 1 || rows[0][0] != route.role) {
				t.Errorf("%s: meta_replication = %v, want one %s row", route.name, rows, route.role)
			}
		}
		route.session.Close()
	}

	for _, pool := range []bool{false, true} {
		t.Run(fmt.Sprintf("served/pool=%v", pool), func(t *testing.T) {
			db := Open(DefaultConfig())
			defer db.Close()
			srv := db.NewServer()
			if pool {
				srv.EnableExecutorPool(2, 0)
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve() }()
			defer func() { srv.Shutdown(5 * time.Second); <-served }()
			conn, err := pgclient.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for _, table := range all {
				res, err := conn.SimpleQuery("SELECT * FROM " + table)
				if err != nil {
					t.Fatalf("%s: %v", table, err)
				}
				var got []string
				for _, f := range res[0].Fields {
					got = append(got, f.Name+" "+wireTypes[f.OID])
				}
				if !reflect.DeepEqual(got, metaColumns[table]) {
					t.Errorf("%s columns = %q, want %q", table, got, metaColumns[table])
				}
				if want := map[bool]int{false: 0, true: 3}[pool]; table == "meta_executor_pool" && len(res[0].Rows) != want {
					t.Errorf("meta_executor_pool has %d rows, want one per queue (%d)", len(res[0].Rows), want)
				}
			}
		})
	}
}
