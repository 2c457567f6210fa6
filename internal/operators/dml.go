package operators

import (
	"fmt"
	"math"

	"hyrise/internal/concurrency"
	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Insert appends literal rows to a stored table. Within a transaction, the
// rows are stamped with the transaction id and become visible at commit;
// without MVCC they are visible immediately.
type Insert struct {
	TableName string
	Columns   []string // empty = declaration order
	Rows      [][]expression.Expression
}

// Name implements Operator.
func (op *Insert) Name() string {
	return fmt.Sprintf("Insert(%s, %d rows)", op.TableName, len(op.Rows))
}

// Inputs implements Operator.
func (op *Insert) Inputs() []Operator { return nil }

// Run implements Operator.
func (op *Insert) Run(ctx *ExecContext, _ []*storage.Table) (*storage.Table, error) {
	table, err := ctx.SM.GetTable(op.TableName)
	if err != nil {
		return nil, err
	}
	defs := table.ColumnDefinitions()

	// Map the statement's column list to table positions.
	colIdx := make([]int, len(defs))
	if len(op.Columns) == 0 {
		for i := range colIdx {
			colIdx[i] = i
		}
	} else {
		for i := range colIdx {
			colIdx[i] = -1
		}
		for stmtPos, name := range op.Columns {
			id, err := table.ColumnID(name)
			if err != nil {
				return nil, err
			}
			colIdx[id] = stmtPos
		}
	}

	ec := &expression.Context{N: 1, Params: ctx.Params}
	ctx.installSubqueryExecutors(ec)
	inserted := 0
	for _, row := range op.Rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(op.Columns) != 0 && len(row) != len(op.Columns) {
			return nil, fmt.Errorf("operators: insert row has %d values, column list has %d", len(row), len(op.Columns))
		}
		if len(op.Columns) == 0 && len(row) != len(defs) {
			return nil, fmt.Errorf("operators: insert row has %d values, table has %d columns", len(row), len(defs))
		}
		vals := make([]types.Value, len(defs))
		for tablePos, d := range defs {
			src := colIdx[tablePos]
			if len(op.Columns) == 0 {
				src = tablePos
			}
			if src < 0 {
				vals[tablePos] = types.NullValue
				continue
			}
			vec, err := expression.Evaluate(row[src], ec)
			if err != nil {
				return nil, err
			}
			vals[tablePos] = coerce(vec.ValueAt(0), d.Type)
		}
		rid, err := table.AppendRow(vals)
		if err != nil {
			return nil, err
		}
		ctx.noteSeal(op, table, rid)
		if table.UsesMvcc() {
			chunk := table.GetChunk(rid.Chunk)
			if ctx.Tx != nil {
				ctx.Tx.RegisterInsert(chunk, rid.Offset)
				ctx.Tx.LogInsert(op.TableName, rid, vals)
			} else {
				concurrency.MarkRowCommitted(chunk, rid.Offset)
			}
		}
		inserted++
	}
	return intCellTable("rows", inserted), nil
}

// noteSeal puts on a DML span what its appends paid beyond appending: the row
// that fills a chunk seals it before AppendRow returns (storage.Table), so the
// statement that wrote it shows sealed=<chunks> and the nanoseconds spent.
func (ctx *ExecContext) noteSeal(op Operator, table *storage.Table, rid types.RowID) {
	if tr := ctx.Trace; tr != nil && int(rid.Offset)+1 == table.TargetChunkSize() {
		if ns := table.GetChunk(rid.Chunk).SealNS(); ns > 0 {
			tr.AddOpAttr(op, "sealed", 1)
			tr.AddOpAttr(op, "seal_ns", ns)
		}
	}
}

// Delete invalidates the rows produced by its input (a reference plan over
// the target table). Updates and deletes are "implemented in an insert-only
// fashion as invalidations and reinsertions" (paper §2.8).
type Delete struct {
	TableName string
	input     Operator
}

// NewDelete builds a delete.
func NewDelete(table string, in Operator) *Delete { return &Delete{TableName: table, input: in} }

// Name implements Operator.
func (op *Delete) Name() string { return "Delete(" + op.TableName + ")" }

// Inputs implements Operator.
func (op *Delete) Inputs() []Operator { return []Operator{op.input} }

// Run implements Operator.
func (op *Delete) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	if ctx.Tx == nil {
		return nil, fmt.Errorf("operators: DELETE requires a transaction")
	}
	refs, err := collectBaseRows(inputs[0])
	if err != nil {
		return nil, err
	}
	for i, r := range refs {
		// Canceled deletes stop between rows; invalidations claimed so far
		// are released when the pipeline rolls the transaction back.
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := ctx.Tx.TryInvalidateWait(ctx.Ctx, r.chunk, r.offset, ctx.LockWait); err != nil {
			return nil, err
		}
		ctx.Tx.LogDelete(op.TableName, r.rid)
	}
	return intCellTable("rows", len(refs)), nil
}

// Update is delete + reinsert: for every input row, the original values are
// fetched, the SET expressions applied, the old version invalidated, and
// the new version appended.
type Update struct {
	TableName  string
	SetColumns []string
	SetExprs   []expression.Expression
	input      Operator
}

// NewUpdate builds an update.
func NewUpdate(table string, cols []string, exprs []expression.Expression, in Operator) *Update {
	return &Update{TableName: table, SetColumns: cols, SetExprs: exprs, input: in}
}

// Name implements Operator.
func (op *Update) Name() string { return "Update(" + op.TableName + ")" }

// Inputs implements Operator.
func (op *Update) Inputs() []Operator { return []Operator{op.input} }

// Run implements Operator.
func (op *Update) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	if ctx.Tx == nil {
		return nil, fmt.Errorf("operators: UPDATE requires a transaction")
	}
	input := inputs[0]
	table, err := ctx.SM.GetTable(op.TableName)
	if err != nil {
		return nil, err
	}
	setIdx := make([]types.ColumnID, len(op.SetColumns))
	for i, name := range op.SetColumns {
		id, err := table.ColumnID(name)
		if err != nil {
			return nil, err
		}
		setIdx[i] = id
	}

	refs, err := collectBaseRows(input)
	if err != nil {
		return nil, err
	}

	// Evaluate SET expressions over the input rows (chunk-wise), then apply
	// invalidate+insert row by row.
	updated := 0
	rowCursor := 0
	for _, c := range input.Chunks() {
		n := c.Size()
		if n == 0 {
			continue
		}
		// Canceled updates stop between chunks; the partial invalidate+insert
		// pairs roll back with the transaction, so no torn update commits.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ec := ctx.evalContext(c, n, nil)
		newVals := make([]*expression.Vector, len(op.SetExprs))
		for i, e := range op.SetExprs {
			v, err := expression.Evaluate(e, ec)
			if err != nil {
				return nil, err
			}
			newVals[i] = v
		}
		for row := 0; row < n; row++ {
			ref := refs[rowCursor]
			rowCursor++
			// Build the new version: original values with SET overrides.
			vals := make([]types.Value, table.ColumnCount())
			for col := range vals {
				vals[col] = ref.chunk.GetSegment(types.ColumnID(col)).ValueAt(ref.offset)
			}
			for i, id := range setIdx {
				vals[id] = coerce(newVals[i].ValueAt(row), table.ColumnDefinitions()[id].Type)
			}
			if err := ctx.Tx.TryInvalidateWait(ctx.Ctx, ref.chunk, ref.offset, ctx.LockWait); err != nil {
				return nil, err
			}
			ctx.Tx.LogDelete(op.TableName, ref.rid)
			rid, err := table.AppendRow(vals)
			if err != nil {
				return nil, err
			}
			ctx.noteSeal(op, table, rid)
			ctx.Tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
			ctx.Tx.LogInsert(op.TableName, rid, vals)
			updated++
		}
	}
	return intCellTable("rows", updated), nil
}

type baseRow struct {
	chunk  *storage.Chunk
	offset types.ChunkOffset
	rid    types.RowID // position in the base table, for redo logging
}

// collectBaseRows resolves every row of a reference table to the base chunk
// holding it (the chunk carries the MVCC columns to stamp).
func collectBaseRows(t *storage.Table) ([]baseRow, error) {
	all := t.AllRows()
	if all.Len() == 0 {
		return nil, nil
	}
	rows := all.Positions(0)
	base := rows.Table()
	if base == t {
		return nil, fmt.Errorf("operators: DML source must be a reference plan over the target table")
	}
	out := make([]baseRow, 0, all.Len())
	for _, rid := range rows.Rows() {
		if !rid.IsNull() {
			out = append(out, baseRow{chunk: base.GetChunk(rid.Chunk), offset: rid.Offset, rid: rid})
		}
	}
	return out, nil
}

// intCellTable is a single-cell table, one immutable chunk over one value:
// the number of affected rows a DML statement returns, DummyTable's row.
func intCellTable(name string, n int) *storage.Table {
	t := storage.NewTable("", []storage.ColumnDefinition{{Name: name, Type: types.TypeInt64}}, 1, false)
	c := storage.NewChunk([]storage.Segment{storage.ValueSegmentFromSlice([]int64{int64(n)}, nil)}, nil)
	c.Finalize()
	t.AppendChunk(c)
	return t
}

// coerce adapts a value to the type of the stored column it is written to
// (an int into a FLOAT column and vice versa).
func coerce(v types.Value, want types.DataType) types.Value {
	if v.IsNull() || v.Type == want {
		return v
	}
	switch want {
	case types.TypeFloat64:
		if v.Type.IsNumeric() {
			return types.Float(v.AsFloat())
		}
	case types.TypeInt64:
		if v.Type == types.TypeFloat64 && v.F == math.Trunc(v.F) {
			return types.Int(int64(v.F))
		}
		if v.Type == types.TypeBool {
			return types.Int(v.I)
		}
	case types.TypeString:
		return types.Str(v.String())
	}
	return v
}
