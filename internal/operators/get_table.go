package operators

import (
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// GetTable reads a stored table from the storage manager, whole: chunks are
// skipped by the scan that reads them (chunkScan's prune rung), so every
// operator above sees the table's own chunk ids.
type GetTable struct {
	TableName string
}

// Name implements Operator.
func (op *GetTable) Name() string { return "GetTable(" + op.TableName + ")" }

// Inputs implements Operator.
func (op *GetTable) Inputs() []Operator { return nil }

// Run implements Operator.
func (op *GetTable) Run(ctx *ExecContext, _ []*storage.Table) (*storage.Table, error) {
	return ctx.SM.GetTable(op.TableName)
}

// DummyTable produces one row with a single unused column; it backs
// SELECTs without a FROM clause.
type DummyTable struct{}

// Name implements Operator.
func (op *DummyTable) Name() string { return "DummyTable" }

// Inputs implements Operator.
func (op *DummyTable) Inputs() []Operator { return nil }

// Run implements Operator.
func (op *DummyTable) Run(*ExecContext, []*storage.Table) (*storage.Table, error) {
	return intCellTable("__dummy", 0), nil
}

// intCellTable is a single-cell table, one immutable chunk over one value:
// DummyTable's row.
func intCellTable(name string, n int) *storage.Table {
	t := storage.NewTable("", []storage.ColumnDefinition{{Name: name, Type: types.TypeInt64}}, 1, false)
	c := storage.NewChunk([]storage.Segment{storage.ValueSegmentFromSlice([]int64{int64(n)}, nil)}, nil)
	c.Finalize()
	t.AppendChunk(c)
	return t
}
