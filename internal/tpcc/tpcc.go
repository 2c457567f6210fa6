// Package tpcc implements a TPC-C benchmark substrate. The paper lists
// TPC-C support as work in progress (§2.10); this package implements it as
// an extension: the nine-table schema, a deterministic data generator, and
// the main transaction mix (New-Order, Payment, Order-Status) executed as
// SQL over MVCC transactions. Monetary columns are FLOAT and dates are
// strings, matching the engine's TPC-H dialect.
package tpcc

import (
	"fmt"
	"math/rand"
	"strings"

	"hyrise/internal/concurrency"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Config scales the generated data. The official TPC-C sizes (100k items,
// 3k customers per district) are the defaults; tests use smaller values.
type Config struct {
	Warehouses            int
	DistrictsPerWarehouse int
	CustomersPerDistrict  int
	Items                 int
	InitialOrders         int // per district
	ChunkSize             int
	Seed                  int64
}

// DefaultConfig returns official-proportioned sizes for one warehouse.
func DefaultConfig() Config {
	return Config{
		Warehouses:            1,
		DistrictsPerWarehouse: 10,
		CustomersPerDistrict:  3000,
		Items:                 100_000,
		InitialOrders:         3000,
		ChunkSize:             25_000,
		Seed:                  7,
	}
}

type table struct {
	name string
	defs []storage.ColumnDefinition
}

func intCol(n string) storage.ColumnDefinition {
	return storage.ColumnDefinition{Name: n, Type: types.TypeInt64}
}
func floatCol(n string) storage.ColumnDefinition {
	return storage.ColumnDefinition{Name: n, Type: types.TypeFloat64}
}
func strCol(n string) storage.ColumnDefinition {
	return storage.ColumnDefinition{Name: n, Type: types.TypeString}
}

func schema() []table {
	return []table{
		{"warehouse", []storage.ColumnDefinition{
			intCol("w_id"), strCol("w_name"), floatCol("w_tax"), floatCol("w_ytd"),
		}},
		{"district", []storage.ColumnDefinition{
			intCol("d_id"), intCol("d_w_id"), strCol("d_name"),
			floatCol("d_tax"), floatCol("d_ytd"), intCol("d_next_o_id"),
		}},
		{"customer", []storage.ColumnDefinition{
			intCol("c_id"), intCol("c_d_id"), intCol("c_w_id"), strCol("c_last"),
			strCol("c_credit"), floatCol("c_balance"), floatCol("c_ytd_payment"),
			intCol("c_payment_cnt"),
		}},
		{"history", []storage.ColumnDefinition{
			intCol("h_c_id"), intCol("h_c_d_id"), intCol("h_c_w_id"),
			floatCol("h_amount"), strCol("h_data"),
		}},
		{"orders", []storage.ColumnDefinition{
			intCol("o_id"), intCol("o_d_id"), intCol("o_w_id"), intCol("o_c_id"),
			intCol("o_ol_cnt"), intCol("o_carrier_id"), strCol("o_entry_d"),
		}},
		{"new_order", []storage.ColumnDefinition{
			intCol("no_o_id"), intCol("no_d_id"), intCol("no_w_id"),
		}},
		{"order_line", []storage.ColumnDefinition{
			intCol("ol_o_id"), intCol("ol_d_id"), intCol("ol_w_id"), intCol("ol_number"),
			intCol("ol_i_id"), floatCol("ol_quantity"), floatCol("ol_amount"),
		}},
		{"item", []storage.ColumnDefinition{
			intCol("i_id"), strCol("i_name"), floatCol("i_price"), strCol("i_data"),
		}},
		{"stock", []storage.ColumnDefinition{
			intCol("s_i_id"), intCol("s_w_id"), intCol("s_quantity"),
			floatCol("s_ytd"), intCol("s_order_cnt"),
		}},
	}
}

// Generate creates, registers and populates the nine TPC-C tables. It loads
// like LoadCSV: each table is registered first and filled by a
// storage.Loader, which publishes every chunk sealed by the catalog's Sealer,
// the last one when the load ends.
func Generate(sm *storage.StorageManager, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	districts := cfg.Warehouses * cfg.DistrictsPerWarehouse
	orders := districts * cfg.InitialOrders
	rows := map[string]int{
		"warehouse": cfg.Warehouses, "district": districts, "customer": districts * cfg.CustomersPerDistrict,
		"orders": orders, "new_order": districts * (cfg.InitialOrders - cfg.InitialOrders*2/3),
		"order_line": orders * 10, "item": cfg.Items, "stock": cfg.Warehouses * cfg.Items,
	}
	loaders := make(map[string]*storage.Loader)
	for _, t := range schema() {
		table := storage.NewTable(t.name, t.defs, cfg.ChunkSize, true)
		if err := sm.AddTable(table); err != nil {
			return err
		}
		loaders[t.name] = storage.NewLoader(table, rows[t.name])
	}
	item, warehouse, stock, district := loaders["item"], loaders["warehouse"], loaders["stock"], loaders["district"]
	customer, order, orderLine, newOrder := loaders["customer"], loaders["orders"], loaders["order_line"], loaders["new_order"]

	for i := 1; i <= cfg.Items; i++ {
		item.Int(int64(i))
		item.Str(fmt.Sprintf("item-%06d", i))
		item.Float(float64(100+rng.Intn(9900)) / 100)
		item.Str(randData(rng))
		item.EndRow()
	}

	for w := 1; w <= cfg.Warehouses; w++ {
		warehouse.Int(int64(w))
		warehouse.Str(fmt.Sprintf("wh-%02d", w))
		warehouse.Float(float64(rng.Intn(2000)) / 10000)
		warehouse.Float(300_000)
		warehouse.EndRow()
		for i := 1; i <= cfg.Items; i++ {
			stock.Int(int64(i))
			stock.Int(int64(w))
			stock.Int(int64(10 + rng.Intn(91)))
			stock.Float(0)
			stock.Int(0)
			stock.EndRow()
		}
		for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
			district.Int(int64(d))
			district.Int(int64(w))
			district.Str(fmt.Sprintf("dist-%02d-%02d", w, d))
			district.Float(float64(rng.Intn(2000)) / 10000)
			district.Float(30_000)
			district.Int(int64(cfg.InitialOrders + 1))
			district.EndRow()
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				customer.Int(int64(c))
				customer.Int(int64(d))
				customer.Int(int64(w))
				customer.Str(lastName(rng.Intn(1000)))
				customer.Str(credit)
				customer.Float(-10)
				customer.Float(10)
				customer.Int(1)
				customer.EndRow()
			}
			for o := 1; o <= cfg.InitialOrders; o++ {
				olCnt := 5 + rng.Intn(11)
				order.Int(int64(o))
				order.Int(int64(d))
				order.Int(int64(w))
				order.Int(int64(1 + rng.Intn(cfg.CustomersPerDistrict)))
				order.Int(int64(olCnt))
				order.Int(int64(1 + rng.Intn(10)))
				order.Str("2024-01-01")
				order.EndRow()
				for ol := 1; ol <= olCnt; ol++ {
					orderLine.Int(int64(o))
					orderLine.Int(int64(d))
					orderLine.Int(int64(w))
					orderLine.Int(int64(ol))
					orderLine.Int(int64(1 + rng.Intn(cfg.Items)))
					orderLine.Float(5)
					orderLine.Float(float64(rng.Intn(999900)) / 100)
					orderLine.EndRow()
				}
				// The last third of the initial orders is undelivered.
				if o > cfg.InitialOrders*2/3 {
					newOrder.Int(int64(o))
					newOrder.Int(int64(d))
					newOrder.Int(int64(w))
					newOrder.EndRow()
				}
			}
		}
	}
	for _, def := range schema() {
		loaders[def.name].Close()
		concurrency.MarkTableLoaded(loaders[def.name].Table())
	}
	return nil
}

var lastSyllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// lastName builds the TPC-C customer last name from a number.
func lastName(num int) string {
	return lastSyllables[num/100%10] + lastSyllables[num/10%10] + lastSyllables[num%10]
}

func randData(rng *rand.Rand) string {
	if rng.Intn(10) == 0 {
		return "original equipment"
	}
	return fmt.Sprintf("data-%08d", rng.Intn(1<<30))
}

// Stats counts transaction outcomes.
type Stats struct {
	NewOrders, Payments, OrderStatus int
	Aborts                           int
}

// Terminal runs the transaction mix against its own session.
type Terminal struct {
	cfg     Config
	rng     *rand.Rand
	session *pipeline.Session
}

// NewTerminal creates a terminal.
func NewTerminal(e *pipeline.Engine, cfg Config, seed int64) *Terminal {
	return &Terminal{cfg: cfg, rng: rand.New(rand.NewSource(seed)), session: e.NewSession()}
}

// Run executes n transactions with the standard-ish mix (45% New-Order,
// 43% Payment, 12% Order-Status).
func (t *Terminal) Run(n int) (Stats, error) {
	var stats Stats
	for i := 0; i < n; i++ {
		roll := t.rng.Intn(100)
		var err error
		switch {
		case roll < 45:
			err = t.NewOrder()
			if err == nil {
				stats.NewOrders++
			}
		case roll < 88:
			err = t.Payment()
			if err == nil {
				stats.Payments++
			}
		default:
			err = t.OrderStatus()
			if err == nil {
				stats.OrderStatus++
			}
		}
		if err != nil {
			if isConflict(err) {
				stats.Aborts++
				continue
			}
			return stats, err
		}
	}
	return stats, nil
}

func isConflict(err error) bool {
	return err != nil && strings.Contains(err.Error(), "conflict")
}

func (t *Terminal) exec(sql string) error {
	_, err := t.session.ExecuteOne(sql)
	return err
}

func (t *Terminal) queryOne(sql string) ([]string, error) {
	res, err := t.session.ExecuteOne(sql)
	if err != nil {
		return nil, err
	}
	rows := pipeline.RowStrings(res.Table)
	if len(rows) == 0 {
		return nil, fmt.Errorf("tpcc: empty result for %s", sql)
	}
	return rows[0], nil
}

// abortOn rolls back and returns err.
func (t *Terminal) abortOn(err error) error {
	if t.session.InTransaction() {
		_, _ = t.session.ExecuteOne("ROLLBACK")
	}
	return err
}

// NewOrder places an order: read item prices, decrement stock, insert the
// order, its lines, and the new_order entry, bump d_next_o_id.
func (t *Terminal) NewOrder() error {
	w := 1 + t.rng.Intn(t.cfg.Warehouses)
	d := 1 + t.rng.Intn(t.cfg.DistrictsPerWarehouse)
	c := 1 + t.rng.Intn(t.cfg.CustomersPerDistrict)
	nLines := 5 + t.rng.Intn(11)

	if err := t.exec("BEGIN"); err != nil {
		return err
	}
	row, err := t.queryOne(fmt.Sprintf(
		"SELECT d_next_o_id FROM district WHERE d_w_id = %d AND d_id = %d", w, d))
	if err != nil {
		return t.abortOn(err)
	}
	oid := row[0]
	if err := t.exec(fmt.Sprintf(
		"UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = %d AND d_id = %d", w, d)); err != nil {
		return t.abortOn(err)
	}
	if err := t.exec(fmt.Sprintf(
		"INSERT INTO orders VALUES (%s, %d, %d, %d, %d, 0, '2024-06-01')",
		oid, d, w, c, nLines)); err != nil {
		return t.abortOn(err)
	}
	if err := t.exec(fmt.Sprintf(
		"INSERT INTO new_order VALUES (%s, %d, %d)", oid, d, w)); err != nil {
		return t.abortOn(err)
	}
	for ol := 1; ol <= nLines; ol++ {
		item := 1 + t.rng.Intn(t.cfg.Items)
		qty := 1 + t.rng.Intn(10)
		priceRow, err := t.queryOne(fmt.Sprintf(
			"SELECT i_price FROM item WHERE i_id = %d", item))
		if err != nil {
			return t.abortOn(err)
		}
		if err := t.exec(fmt.Sprintf(`UPDATE stock SET
			s_quantity = s_quantity - %d, s_ytd = s_ytd + %d.0, s_order_cnt = s_order_cnt + 1
			WHERE s_i_id = %d AND s_w_id = %d`, qty, qty, item, w)); err != nil {
			return t.abortOn(err)
		}
		if err := t.exec(fmt.Sprintf(
			"INSERT INTO order_line VALUES (%s, %d, %d, %d, %d, %d.0, %s * %d)",
			oid, d, w, ol, item, qty, priceRow[0], qty)); err != nil {
			return t.abortOn(err)
		}
	}
	return t.exec("COMMIT")
}

// Payment records a customer payment: bump warehouse/district YTD, update
// the customer balance, insert a history row.
func (t *Terminal) Payment() error {
	w := 1 + t.rng.Intn(t.cfg.Warehouses)
	d := 1 + t.rng.Intn(t.cfg.DistrictsPerWarehouse)
	c := 1 + t.rng.Intn(t.cfg.CustomersPerDistrict)
	amount := float64(100+t.rng.Intn(499900)) / 100

	if err := t.exec("BEGIN"); err != nil {
		return err
	}
	steps := []string{
		fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + %.2f WHERE w_id = %d", amount, w),
		fmt.Sprintf("UPDATE district SET d_ytd = d_ytd + %.2f WHERE d_w_id = %d AND d_id = %d", amount, w, d),
		fmt.Sprintf(`UPDATE customer SET c_balance = c_balance - %.2f,
			c_ytd_payment = c_ytd_payment + %.2f, c_payment_cnt = c_payment_cnt + 1
			WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d`, amount, amount, w, d, c),
		fmt.Sprintf("INSERT INTO history VALUES (%d, %d, %d, %.2f, 'payment')", c, d, w, amount),
	}
	for _, sql := range steps {
		if err := t.exec(sql); err != nil {
			return t.abortOn(err)
		}
	}
	return t.exec("COMMIT")
}

// OrderStatus reads a customer's most recent order and its lines.
func (t *Terminal) OrderStatus() error {
	w := 1 + t.rng.Intn(t.cfg.Warehouses)
	d := 1 + t.rng.Intn(t.cfg.DistrictsPerWarehouse)
	c := 1 + t.rng.Intn(t.cfg.CustomersPerDistrict)

	res, err := t.session.ExecuteOne(fmt.Sprintf(`
		SELECT o_id, o_entry_d, o_carrier_id FROM orders
		WHERE o_w_id = %d AND o_d_id = %d AND o_c_id = %d
		ORDER BY o_id DESC LIMIT 1`, w, d, c))
	if err != nil {
		return err
	}
	rows := pipeline.RowStrings(res.Table)
	if len(rows) == 0 {
		return nil // customer without orders: valid outcome
	}
	_, err = t.session.ExecuteOne(fmt.Sprintf(`
		SELECT ol_number, ol_i_id, ol_quantity, ol_amount FROM order_line
		WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id = %s`, w, d, rows[0][0]))
	return err
}
