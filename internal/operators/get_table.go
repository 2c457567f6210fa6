package operators

import (
	"fmt"

	"hyrise/internal/concurrency"
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
	t := storage.NewTable("", []storage.ColumnDefinition{{Name: "__dummy", Type: types.TypeInt64}}, 1, false)
	if _, err := t.AppendRow([]types.Value{types.Int(0)}); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate filters rows by MVCC visibility for the context's transaction
// (paper §2.8). Its output is a reference table of the visible rows.
type Validate struct {
	input Operator
}

// NewValidate wraps an input operator.
func NewValidate(in Operator) *Validate { return &Validate{input: in} }

// Name implements Operator.
func (op *Validate) Name() string { return "Validate" }

// Inputs implements Operator.
func (op *Validate) Inputs() []Operator { return []Operator{op.input} }

// Run implements Operator.
func (op *Validate) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	if ctx.Tx == nil {
		return nil, fmt.Errorf("operators: Validate requires a transaction context")
	}
	tid, snapshot := ctx.Tx.TID(), ctx.Tx.Snapshot()

	chunks := input.Chunks()
	rowsPerChunk := make([]types.PosList, len(chunks))
	jobs := make([]func(), len(chunks))
	for ci, c := range chunks {
		ci, c := ci, c
		jobs[ci] = func() {
			n := c.Size()
			if n == 0 {
				return
			}
			// Reference inputs: visibility is checked on the referenced
			// base rows.
			if ref, ok := c.GetSegment(0).(*storage.ReferenceSegment); ok {
				baseTable := ref.ReferencedTable()
				pos := ref.PosList()
				var keep types.PosList
				for o := 0; o < n; o++ {
					rid := pos[o]
					if rid.IsNull() {
						continue
					}
					mvcc := baseTable.GetChunk(rid.Chunk).MvccData()
					if mvcc == nil || concurrency.Visible(mvcc, rid.Offset, tid, snapshot) {
						keep = append(keep, types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(o)})
					}
				}
				rowsPerChunk[ci] = keep
				return
			}
			mvcc := c.MvccData()
			if mvcc == nil {
				rowsPerChunk[ci] = identityPositions(types.ChunkID(ci), n)
				return
			}
			var keep types.PosList
			for o := 0; o < n; o++ {
				if concurrency.Visible(mvcc, types.ChunkOffset(o), tid, snapshot) {
					keep = append(keep, types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(o)})
				}
			}
			rowsPerChunk[ci] = keep
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return buildReferenceTable(input, rowsPerChunk, nil), nil
}
