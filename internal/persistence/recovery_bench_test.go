package persistence

import (
	"os"
	"strconv"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// BenchmarkMicroRecovery belongs to the BenchmarkMicro* set of
// internal/benchmark (same gate, same baseline file); it lives beside the
// recovery it times.

// microRecoveryDir builds a data directory holding a checkpointed snapshot
// plus a WAL suffix of further commits — both recovery phases get exercised.
func microRecoveryDir(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	sm := storage.NewStorageManager()
	tm := concurrency.NewTransactionManager()
	m, err := Open(sm, tm, Options{Dir: dir, Mode: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "name", Type: types.TypeString},
	}
	table := storage.NewTable("t", defs, 4096, true)
	if err := sm.AddTable(table); err != nil {
		b.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		b.Fatal(err)
	}
	insert := func(lo, hi int) {
		tx := tm.New()
		for i := lo; i < hi; i++ {
			vals := []types.Value{types.Int(int64(i)), types.Str("row-" + string(rune('a'+i%26)))}
			rid, err := table.AppendRow(vals)
			if err != nil {
				b.Fatal(err)
			}
			tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
			tx.LogInsert(table.Name(), rid, vals)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	insert(0, n/2)
	if err := m.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	insert(n/2, n) // survives only in the WAL suffix
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func BenchmarkMicroRecovery(b *testing.B) {
	n := 50_000 // a quarter of the other microbenchmarks' rows: recovery re-reads everything per iteration
	if s := os.Getenv("HYRISE_MICRO_ROWS"); s != "" {
		if rows, err := strconv.Atoi(s); err == nil && rows > 0 {
			n = rows / 4
		}
	}
	dir := microRecoveryDir(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := storage.NewStorageManager()
		tm := concurrency.NewTransactionManager()
		m, err := Open(sm, tm, Options{Dir: dir, Mode: SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		t, err := sm.GetTable("t")
		if err != nil {
			b.Fatal(err)
		}
		if t.RowCount() != n {
			b.Fatalf("recovered %d rows, want %d", t.RowCount(), n)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
