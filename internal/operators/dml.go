package operators

import (
	"fmt"
	"slices"

	"hyrise/internal/concurrency"
	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Insert appends literal rows to a stored table. Within a transaction, the
// rows are stamped with the transaction id and become visible at commit;
// without MVCC they are visible immediately. Like Update and Delete, it
// returns no table: its count is ExecContext.RowsAffected.
type Insert struct {
	TableName string
	Rows      [][]expression.Expression // in table order, nil = NULL (lqp.InsertNode)
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
	if len(op.Rows) > 0 && len(op.Rows[0]) != len(defs) { // a DDL since the plan
		return nil, fmt.Errorf("operators: table %q changed since the statement was planned", op.TableName)
	}
	var ec *expression.Context // for the cells that need evaluating
	inserted := 0
	for _, row := range op.Rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vals := make([]types.Value, len(defs))
		for i, e := range row {
			if v, ok := insertValue(e, ctx.Params); ok && v.Type == defs[i].Type {
				vals[i] = v // Vector.As is the identity here
				continue
			}
			if e == nil {
				continue // the zero Value is NULL
			}
			if ec == nil {
				ec = &expression.Context{N: 1, Params: ctx.Params}
				ctx.installSubqueryExecutors(ec)
			}
			vec, err := expression.Evaluate(e, ec)
			if err == nil {
				vec, err = vec.As(defs[i].Type)
			}
			if err != nil {
				return nil, err
			}
			vals[i] = vec.ValueAt(0)
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
	ctx.affected = int64(inserted)
	return nil, nil
}

// insertValue reads an INSERT cell that needs no evaluation: a bound
// parameter or a literal.
func insertValue(e expression.Expression, params []types.Value) (types.Value, bool) {
	switch x := e.(type) {
	case *expression.Parameter:
		if x.ID < len(params) {
			return params[x.ID], true
		}
	case *expression.Literal:
		return x.Value, true
	}
	return types.Value{}, false
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
	inputs    []Operator // the one input, held as Inputs returns it
}

// NewDelete builds a delete.
func NewDelete(table string, in Operator) *Delete {
	return &Delete{TableName: table, inputs: []Operator{in}}
}

// Name implements Operator.
func (op *Delete) Name() string { return "Delete(" + op.TableName + ")" }

// Inputs implements Operator.
func (op *Delete) Inputs() []Operator { return op.inputs }

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
	ctx.affected = int64(len(refs))
	return nil, nil
}

// Update is delete + reinsert: for every input row, the original values are
// fetched, the SET expressions applied, the old version invalidated, and
// the new version appended.
type Update struct {
	TableName  string
	SetColumns []int // lqp.UpdateNode's
	SetExprs   []expression.Expression
	inputs     []Operator // the one input, held as Inputs returns it
}

// NewUpdate builds an update.
func NewUpdate(table string, cols []int, exprs []expression.Expression, in Operator) *Update {
	return &Update{TableName: table, SetColumns: cols, SetExprs: exprs, inputs: []Operator{in}}
}

// Name implements Operator.
func (op *Update) Name() string { return "Update(" + op.TableName + ")" }

// Inputs implements Operator.
func (op *Update) Inputs() []Operator { return op.inputs }

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
	if slices.Max(op.SetColumns) >= table.ColumnCount() { // a DDL since the plan
		return nil, fmt.Errorf("operators: table %q changed since the statement was planned", op.TableName)
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
			if err == nil {
				newVals[i], err = v.As(table.ColumnDefinitions()[op.SetColumns[i]].Type)
			}
			if err != nil {
				return nil, err
			}
		}
		for row := 0; row < n; row++ {
			ref := refs[rowCursor]
			rowCursor++
			// Build the new version: original values with SET overrides.
			vals := make([]types.Value, table.ColumnCount())
			for col := range vals {
				vals[col] = ref.chunk.GetSegment(types.ColumnID(col)).ValueAt(ref.offset)
			}
			for i, id := range op.SetColumns {
				vals[id] = newVals[i].ValueAt(row)
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
	ctx.affected = int64(updated)
	return nil, nil
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
