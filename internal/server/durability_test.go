package server

import (
	"fmt"
	"testing"

	"hyrise/internal/pipeline"
	"hyrise/internal/tpcc"
)

// startDurableServer opens an engine with the WAL enabled over dir and
// serves it on a loopback port.
func startDurableServer(t *testing.T, dir string) (string, *pipeline.Engine, *Server) {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.DataDir = dir
	cfg.SyncMode = "off" // every append still reaches the OS; fsync is irrelevant here
	e, err := pipeline.NewEngineErr(cfg, nil)
	if err != nil {
		t.Fatalf("open durable engine: %v", err)
	}
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	return addr, e, srv
}

func (c *pgClient) mustQuery(t *testing.T, sql string) queryResult {
	t.Helper()
	res := c.simpleQuery(t, sql)
	if res.err != "" {
		t.Fatalf("%s: %s", sql, res.err)
	}
	return res
}

// TestCrashNewOrderSurvivesServerRestart is the end-to-end durability test from
// the issue: a TPC-C NewOrder committed through the pgwire server must
// survive a full engine restart on the same data directory, while an
// uncommitted transaction left dangling on a second connection must not.
func TestCrashNewOrderSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	addr, e, srv := startDurableServer(t, dir)

	cfg := tpcc.Config{
		Warehouses: 1, DistrictsPerWarehouse: 2, CustomersPerDistrict: 30,
		Items: 200, InitialOrders: 30, ChunkSize: 1000, Seed: 7,
	}
	if err := tpcc.Generate(e.StorageManager(), cfg); err != nil {
		t.Fatalf("tpcc.Generate: %v", err)
	}
	// Bulk loads bypass the WAL; a checkpoint makes the base data durable.
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// A couple of NewOrder transactions through the engine's own sessions
	// (volume), then one spelled out statement by statement over the wire.
	term := tpcc.NewTerminal(e, cfg, 1)
	for i := 0; i < 3; i++ {
		if err := term.NewOrder(); err != nil {
			t.Fatalf("terminal NewOrder: %v", err)
		}
	}

	c := dial(t, addr)
	oid := c.mustQuery(t, "SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1").rows[0][0]
	c.mustQuery(t, "BEGIN")
	c.mustQuery(t, "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = 1 AND d_id = 1")
	c.mustQuery(t, fmt.Sprintf("INSERT INTO orders VALUES (%s, 1, 1, 1, 2, 0, '2026-08-06')", oid))
	c.mustQuery(t, fmt.Sprintf("INSERT INTO new_order VALUES (%s, 1, 1)", oid))
	for ol, item := range map[int]int{1: 7, 2: 42} {
		price := c.mustQuery(t, fmt.Sprintf("SELECT i_price FROM item WHERE i_id = %d", item)).rows[0][0]
		c.mustQuery(t, fmt.Sprintf(
			"UPDATE stock SET s_quantity = s_quantity - 3, s_ytd = s_ytd + 3.0, s_order_cnt = s_order_cnt + 1 WHERE s_i_id = %d AND s_w_id = 1", item))
		c.mustQuery(t, fmt.Sprintf(
			"INSERT INTO order_line VALUES (%s, 1, 1, %d, %d, 3.0, %s * 3)", oid, ol, item, price))
	}
	c.mustQuery(t, "COMMIT")

	// Capture the post-commit state the restart must reproduce.
	orderSQL := fmt.Sprintf("SELECT o_id, o_c_id, o_ol_cnt, o_entry_d FROM orders WHERE o_id = %s AND o_d_id = 1 AND o_w_id = 1", oid)
	linesSQL := fmt.Sprintf("SELECT ol_number, ol_i_id, ol_amount FROM order_line WHERE ol_o_id = %s AND ol_d_id = 1 ORDER BY ol_number", oid)
	stockSQL := "SELECT s_quantity, s_order_cnt FROM stock WHERE s_i_id = 7 AND s_w_id = 1"
	wantOrder := c.mustQuery(t, orderSQL).rows
	wantLines := c.mustQuery(t, linesSQL).rows
	wantStock := c.mustQuery(t, stockSQL).rows
	wantNext := c.mustQuery(t, "SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1").rows[0][0]
	if len(wantOrder) != 1 || len(wantLines) != 2 {
		t.Fatalf("order not visible before restart: %v / %v", wantOrder, wantLines)
	}

	// A second connection leaves a transaction open: its rows must vanish.
	c2 := dial(t, addr)
	c2.mustQuery(t, "BEGIN")
	c2.mustQuery(t, "INSERT INTO orders VALUES (999999, 1, 1, 1, 1, 0, 'ghost')")

	srv.Close()
	e.Close()

	addr2, e2, srv2 := startDurableServer(t, dir)
	defer func() {
		srv2.Close()
		e2.Close()
	}()
	c3 := dial(t, addr2)

	sameRows := func(a, b [][]string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}

	if got := c3.mustQuery(t, orderSQL).rows; !sameRows(got, wantOrder) {
		t.Errorf("order after restart = %v, want %v", got, wantOrder)
	}
	if got := c3.mustQuery(t, linesSQL).rows; !sameRows(got, wantLines) {
		t.Errorf("order lines after restart = %v, want %v", got, wantLines)
	}
	if got := c3.mustQuery(t, stockSQL).rows; !sameRows(got, wantStock) {
		t.Errorf("stock after restart = %v, want %v", got, wantStock)
	}
	if got := c3.mustQuery(t, "SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1").rows[0][0]; got != wantNext {
		t.Errorf("d_next_o_id after restart = %s, want %s", got, wantNext)
	}
	if got := c3.mustQuery(t, "SELECT o_id FROM orders WHERE o_id = 999999").rows; len(got) != 0 {
		t.Errorf("uncommitted order visible after restart: %v", got)
	}
}
