package tpcc

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// smallConfig is a few hundred rows per table: fast enough for every test.
func smallConfig() Config {
	return Config{
		Warehouses:            1,
		DistrictsPerWarehouse: 2,
		CustomersPerDistrict:  30,
		Items:                 200,
		InitialOrders:         30,
		ChunkSize:             1000,
		Seed:                  7,
	}
}

func setup(t *testing.T) (*pipeline.Engine, Config) {
	t.Helper()
	cfg := smallConfig()
	sm := storage.NewStorageManager()
	if err := Generate(sm, cfg); err != nil {
		t.Fatal(err)
	}
	e := pipeline.NewEngine(pipeline.DefaultConfig(), sm)
	t.Cleanup(e.Close)
	return e, cfg
}

func queryFloat(t *testing.T, e *pipeline.Engine, sql string) float64 {
	t.Helper()
	s := e.NewSession()
	res, err := s.ExecuteOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows := pipeline.RowStrings(res.Table)
	f, err := strconv.ParseFloat(rows[0][0], 64)
	if err != nil {
		t.Fatalf("parse %q: %v", rows[0][0], err)
	}
	return f
}

func TestGenerateSchemaAndCardinalities(t *testing.T) {
	e, cfg := setup(t)
	sm := e.StorageManager()
	expect := map[string]int{
		"warehouse": cfg.Warehouses,
		"district":  cfg.Warehouses * cfg.DistrictsPerWarehouse,
		"customer":  cfg.Warehouses * cfg.DistrictsPerWarehouse * cfg.CustomersPerDistrict,
		"item":      cfg.Items,
		"stock":     cfg.Warehouses * cfg.Items,
		"orders":    cfg.Warehouses * cfg.DistrictsPerWarehouse * cfg.InitialOrders,
	}
	for name, want := range expect {
		tab, err := sm.GetTable(name)
		if err != nil {
			t.Fatal(err)
		}
		if tab.RowCount() != want {
			t.Errorf("%s: %d rows, want %d", name, tab.RowCount(), want)
		}
	}
	// Undelivered orders: the last third.
	no, _ := sm.GetTable("new_order")
	want := cfg.Warehouses * cfg.DistrictsPerWarehouse * (cfg.InitialOrders - cfg.InitialOrders*2/3)
	if no.RowCount() != want {
		t.Errorf("new_order rows = %d, want %d", no.RowCount(), want)
	}
}

func TestNewOrderTransaction(t *testing.T) {
	e, cfg := setup(t)
	term := NewTerminal(e, cfg, 1)

	ordersBefore := queryFloat(t, e, "SELECT count(*) FROM orders")
	if err := term.NewOrder(); err != nil {
		t.Fatal(err)
	}
	ordersAfter := queryFloat(t, e, "SELECT count(*) FROM orders")
	if ordersAfter != ordersBefore+1 {
		t.Errorf("orders %f -> %f", ordersBefore, ordersAfter)
	}
	// d_next_o_id advanced for exactly one district.
	total := queryFloat(t, e, "SELECT sum(d_next_o_id) FROM district")
	wantTotal := float64(cfg.DistrictsPerWarehouse*(cfg.InitialOrders+1)) + 1
	if total != wantTotal {
		t.Errorf("sum(d_next_o_id) = %f, want %f", total, wantTotal)
	}
	// Order lines reference the new order and carry positive amounts.
	badLines := queryFloat(t, e, "SELECT count(*) FROM order_line WHERE ol_amount <= 0")
	if badLines != 0 {
		t.Errorf("%f non-positive order line amounts", badLines)
	}
}

func TestPaymentConsistency(t *testing.T) {
	e, cfg := setup(t)
	term := NewTerminal(e, cfg, 2)
	for i := 0; i < 10; i++ {
		if err := term.Payment(); err != nil {
			t.Fatal(err)
		}
	}
	// TPC-C consistency condition 1-ish: warehouse YTD growth equals the
	// history amounts, and equals district YTD growth.
	wYtd := queryFloat(t, e, "SELECT sum(w_ytd) FROM warehouse") - 300_000*float64(cfg.Warehouses)
	dYtd := queryFloat(t, e, "SELECT sum(d_ytd) FROM district") - 30_000*float64(cfg.Warehouses*cfg.DistrictsPerWarehouse)
	hSum := queryFloat(t, e, "SELECT sum(h_amount) FROM history")
	if diff := wYtd - hSum; diff > 0.01 || diff < -0.01 {
		t.Errorf("warehouse ytd %.2f != history sum %.2f", wYtd, hSum)
	}
	if diff := dYtd - hSum; diff > 0.01 || diff < -0.01 {
		t.Errorf("district ytd %.2f != history sum %.2f", dYtd, hSum)
	}
	payments := queryFloat(t, e, "SELECT count(*) FROM history")
	if payments != 10 {
		t.Errorf("history rows = %f", payments)
	}
}

func TestMixedWorkloadSerial(t *testing.T) {
	e, cfg := setup(t)
	term := NewTerminal(e, cfg, 3)
	stats, err := term.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	total := stats.NewOrders + stats.Payments + stats.OrderStatus + stats.Aborts
	if total != 60 {
		t.Errorf("accounted transactions = %d, want 60 (%+v)", total, stats)
	}
	if stats.NewOrders == 0 || stats.Payments == 0 {
		t.Errorf("mix missing transaction types: %+v", stats)
	}
}

func TestConcurrentTerminals(t *testing.T) {
	e, cfg := setup(t)
	const terminals = 4
	const perTerminal = 15

	var wg sync.WaitGroup
	results := make([]Stats, terminals)
	errs := make([]error, terminals)
	for i := 0; i < terminals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			term := NewTerminal(e, cfg, int64(100+i))
			results[i], errs[i] = term.Run(perTerminal)
		}(i)
	}
	wg.Wait()
	committedPayments := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("terminal %d: %v", i, errs[i])
		}
		committedPayments += results[i].Payments
	}
	// Money conservation under concurrency: warehouse YTD growth must match
	// the committed history rows exactly (aborted payments left no trace).
	wYtd := queryFloat(t, e, "SELECT sum(w_ytd) FROM warehouse") - 300_000*float64(cfg.Warehouses)
	hSum := queryFloat(t, e, "SELECT sum(h_amount) FROM history")
	if diff := wYtd - hSum; diff > 0.01 || diff < -0.01 {
		t.Errorf("concurrent: warehouse ytd %.2f != history %.2f", wYtd, hSum)
	}
	hCount := int(queryFloat(t, e, "SELECT count(*) FROM history"))
	if hCount != committedPayments {
		t.Errorf("history rows %d != committed payments %d", hCount, committedPayments)
	}
	// Every committed new-order produced a new_order entry.
	fmt.Println("concurrent stats:", results)
}

// TestGenerateSealsWhatItLoads: Generate registers its tables before it fills
// them, so on an engine — whose catalog seals the chunks of registered tables
// as they fill — every chunk it loads, the tails included, is sealed once by
// the size model and carries its numeric columns' bins; what the
// terminals append afterwards seals like any other insert.
func TestGenerateSealsWhatItLoads(t *testing.T) {
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	t.Cleanup(e.Close)
	cfg := smallConfig()
	cfg.ChunkSize = 64
	if err := Generate(e.StorageManager(), cfg); err != nil {
		t.Fatal(err)
	}
	loaded, full, encoded := 0, 0, 0
	for _, name := range e.StorageManager().TableNames() {
		table, err := e.StorageManager().GetTable(name)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range table.Chunks() {
			loaded++
			if !c.IsImmutable() {
				t.Errorf("%s chunk %d is still mutable after the load", name, ci)
			}
			if c.Size() == cfg.ChunkSize {
				full++
			}
			for col, def := range table.ColumnDefinitions() {
				id := types.ColumnID(col)
				if spec, _ := encoding.SpecOf(c.GetSegment(id)); spec.Encoding != encoding.Unencoded {
					encoded++
				}
				if z, _ := c.Zone(id); (z.Bins != nil) != def.Type.IsNumeric() {
					t.Errorf("%s chunk %d column %s: bins %v, want them on numeric columns only", name, ci, def.Name, z.Bins)
				}
			}
		}
	}
	if n, _ := e.StorageManager().SealStats(); n != int64(loaded) || full < 10 || encoded == 0 {
		t.Fatalf("%d chunks sealed, %d segments encoded by a load of %d chunks (%d full), want every chunk sealed once", n, encoded, loaded, full)
	}
	term := NewTerminal(e, cfg, 1)
	for i := 0; i < 40; i++ {
		if err := term.NewOrder(); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := e.StorageManager().SealStats(); n <= int64(loaded) {
		t.Error("40 New-Order transactions on 64-row chunks sealed nothing")
	}
}
