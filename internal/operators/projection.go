package operators

import (
	"fmt"
	"strings"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Projection evaluates expressions over its input, one chunk at a time.
// Plain column references are *forwarded* — the input segment (or a
// reference to it) is reused instead of copied — so projections that only
// shuffle or drop columns stay positional (paper §2.6).
type Projection struct {
	Exprs []expression.Expression
	Names []string
	Types []types.DataType
	input Operator
}

// NewProjection builds a projection with the given output names and types
// (taken from the LQP schema at translation time).
func NewProjection(in Operator, exprs []expression.Expression, names []string, dts []types.DataType) *Projection {
	return &Projection{Exprs: exprs, Names: names, Types: dts, input: in}
}

// Name implements Operator.
func (op *Projection) Name() string {
	parts := make([]string, len(op.Exprs))
	for i, e := range op.Exprs {
		parts[i] = e.String()
	}
	return "Projection(" + strings.Join(parts, ", ") + ")"
}

// Inputs implements Operator.
func (op *Projection) Inputs() []Operator { return []Operator{op.input} }

// outputDefs computes the output schema.
func (op *Projection) outputDefs() []storage.ColumnDefinition {
	defs := make([]storage.ColumnDefinition, len(op.Exprs))
	for i := range op.Exprs {
		defs[i] = storage.ColumnDefinition{Name: op.Names[i], Type: op.Types[i], Nullable: true}
	}
	return defs
}

// Run implements Operator.
func (op *Projection) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	chunks := input.Chunks()
	outChunks := make([]*storage.Chunk, len(chunks))
	errs := make([]error, len(chunks))

	jobs := make([]func(), len(chunks))
	for ci, c := range chunks {
		ci, c := ci, c
		jobs[ci] = func() {
			n := c.Size()
			if n == 0 {
				return
			}
			segments := make([]storage.Segment, len(op.Exprs))
			var ec *expression.Context
			var identity *storage.Positions
			for i, e := range op.Exprs {
				// Forwarding fast path for bare column references.
				if bc, ok := e.(*expression.BoundColumn); ok && bc.Index < c.ColumnCount() {
					seg := c.GetSegment(types.ColumnID(bc.Index))
					if _, isRef := seg.(*storage.ReferenceSegment); isRef {
						segments[i] = seg
						continue
					}
					// Data segment: reference it positionally — one identity
					// list for all such columns of the chunk — into the input,
					// which stores the column (the one-level invariant).
					if identity == nil {
						identity = storage.ChunkPositions(input, types.ChunkID(ci), identityOffsets(n))
					}
					segments[i] = storage.NewReferenceSegment(identity, types.ColumnID(bc.Index))
					continue
				}
				if ec == nil {
					ec = ctx.evalContext(c, n, nil)
				}
				vec, err := expression.Evaluate(e, ec)
				if err != nil {
					errs[ci] = err
					return
				}
				if segments[i], err = segmentFromVector(vec, op.Types[i]); err != nil {
					errs[ci] = err
					return
				}
			}
			outChunks[ci] = storage.NewChunk(segments, nil)
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var nonEmpty []*storage.Chunk
	for _, c := range outChunks {
		if c != nil {
			nonEmpty = append(nonEmpty, c)
		}
	}
	return storage.NewReferenceTable(op.outputDefs(), nonEmpty), nil
}

// segmentFromVector stores an evaluation result as a value segment of the
// declared type: a vector of that type, a BOOL as 0/1, all NULLs. A column
// declared NULL (an untyped placeholder) takes its vector's type. The plan
// and bind typed everything else: any other vector is an error.
func segmentFromVector(v *expression.Vector, want types.DataType) (storage.Segment, error) {
	if v.DT == types.TypeBool {
		v = expression.NewIntVector(expression.BoolInts(v.B), v.Nulls)
	}
	switch {
	case want == types.TypeBool || want == types.TypeNull && v.DT == types.TypeNull:
		want = types.TypeInt64
	case want == types.TypeNull:
		want = v.DT
	}
	if v.DT == types.TypeNull {
		v = expression.NullVector(want, v.N)
	}
	switch {
	case v.DT != want:
		return nil, fmt.Errorf("operators: a %s vector in a %s column", v.DT, want)
	case want == types.TypeFloat64:
		return storage.ValueSegmentFromSlice(v.F, nullsOrNil(v)), nil
	case want == types.TypeString:
		return storage.ValueSegmentFromSlice(v.S, nullsOrNil(v)), nil
	default:
		return storage.ValueSegmentFromSlice(v.I, nullsOrNil(v)), nil
	}
}

func nullsOrNil(v *expression.Vector) []bool {
	if v.Nulls == nil {
		return nil
	}
	out := make([]bool, v.N)
	copy(out, v.Nulls)
	return out
}

// Alias renames output columns without touching data.
type Alias struct {
	Names []string
	input Operator
}

// NewAlias builds a rename.
func NewAlias(in Operator, names []string) *Alias { return &Alias{Names: names, input: in} }

// Name implements Operator.
func (op *Alias) Name() string { return "Alias(" + strings.Join(op.Names, ", ") + ")" }

// Inputs implements Operator.
func (op *Alias) Inputs() []Operator { return []Operator{op.input} }

// Run implements Operator.
func (op *Alias) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	defs := make([]storage.ColumnDefinition, input.ColumnCount())
	copy(defs, input.ColumnDefinitions())
	for i := range defs {
		if i < len(op.Names) {
			defs[i].Name = op.Names[i]
		}
	}
	return storage.NewTableView(input, defs), nil
}
