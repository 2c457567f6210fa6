package optimizer

import (
	"math"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/statistics"
	"hyrise/internal/types"
)

// Estimator produces cardinality and selectivity estimates for the rules
// (paper §2.1: the optimizer consults "general statistics, indexes, and
// filters"; histograms back the estimates).
type Estimator struct {
	Stats *statistics.Cache
}

// NewEstimator wraps a statistics cache (nil disables statistics; the
// estimator then falls back to heuristics).
func NewEstimator(stats *statistics.Cache) *Estimator {
	return &Estimator{Stats: stats}
}

// Default selectivities when no statistics apply (textbook constants).
const (
	defaultEqSelectivity    = 0.05
	defaultRangeSelectivity = 0.33
	defaultLikeSelectivity  = 0.10
	defaultOtherSelectivity = 0.25
)

// columnOrigin resolves a column index of node's output to its originating
// stored table and column, following index-preserving nodes.
func columnOrigin(node lqp.Node, index int) (*lqp.StoredTableNode, types.ColumnID, bool) {
	switch n := node.(type) {
	case *lqp.StoredTableNode:
		if index < len(n.Schema()) {
			return n, types.ColumnID(index), true
		}
	case *lqp.ValidateNode, *lqp.PredicateNode, *lqp.SortNode, *lqp.LimitNode, *lqp.AliasNode:
		return columnOrigin(node.Inputs()[0], index)
	case *lqp.JoinNode:
		nLeft := len(n.Inputs()[0].Schema())
		if n.Kind == lqp.JoinSemi || n.Kind == lqp.JoinAnti {
			return columnOrigin(n.Inputs()[0], index)
		}
		if index < nLeft {
			return columnOrigin(n.Inputs()[0], index)
		}
		return columnOrigin(n.Inputs()[1], index-nLeft)
	case *lqp.ProjectionNode:
		if index < len(n.Exprs) {
			if bc, ok := n.Exprs[index].(*expression.BoundColumn); ok {
				return columnOrigin(n.Inputs()[0], bc.Index)
			}
		}
	case *lqp.AggregateNode:
		if index < len(n.GroupBy) {
			if bc, ok := n.GroupBy[index].(*expression.BoundColumn); ok {
				return columnOrigin(n.Inputs()[0], bc.Index)
			}
		}
	}
	return nil, 0, false
}

// tableStats fetches statistics for a stored table node: a column's are
// built on its first use, kept current by the cache from then on.
func (e *Estimator) tableStats(n *lqp.StoredTableNode) *statistics.TableStatistics {
	if e.Stats == nil || n.Table == nil {
		return nil
	}
	return e.Stats.Get(n.Table)
}

// Selectivity estimates the fraction of input rows a predicate keeps, given
// the predicate's input node (for column-origin resolution).
func (e *Estimator) Selectivity(pred expression.Expression, input lqp.Node) float64 {
	switch p := pred.(type) {
	case *expression.Comparison:
		return e.comparisonSelectivity(p, input)
	case *expression.Between:
		col, ok := p.Child.(*expression.BoundColumn)
		if !ok {
			return defaultRangeSelectivity
		}
		lo, okLo := literalValue(p.Lo)
		hi, okHi := literalValue(p.Hi)
		if !okLo || !okHi {
			return defaultRangeSelectivity
		}
		if st, id, ok := e.originStats(input, col.Index); ok {
			return st.EstimateRange(id, &lo, &hi)
		}
		return defaultRangeSelectivity
	case *expression.Logical:
		ls := e.Selectivity(p.Left, input)
		rs := e.Selectivity(p.Right, input)
		if p.Op == expression.And {
			return ls * rs
		}
		return math.Min(1, ls+rs-ls*rs)
	case *expression.Not:
		return clamp01(1 - e.Selectivity(p.Child, input))
	case *expression.In:
		if len(p.List) > 0 {
			s := 0.0
			for range p.List {
				s += defaultEqSelectivity
			}
			return clamp01(s)
		}
		return defaultRangeSelectivity
	case *expression.Exists:
		return 0.5
	case *expression.IsNull:
		nulls := defaultEqSelectivity
		if col, ok := p.Child.(*expression.BoundColumn); ok {
			if st, id, ok := e.originStats(input, col.Index); ok && st.Column(id) != nil {
				nulls = st.Column(id).NullFraction()
			}
		}
		if p.Negate {
			return 1 - nulls
		}
		return nulls
	default:
		return defaultOtherSelectivity
	}
}

func (e *Estimator) comparisonSelectivity(p *expression.Comparison, input lqp.Node) float64 {
	col, lit, op, ok := columnLiteral(p)
	if !ok {
		if p.Op == expression.Eq {
			return defaultEqSelectivity
		}
		if p.Op == expression.Like || p.Op == expression.NotLike {
			return defaultLikeSelectivity
		}
		return defaultRangeSelectivity
	}
	st, id, haveStats := e.originStats(input, col.Index)
	if !haveStats {
		switch op {
		case expression.Eq:
			return defaultEqSelectivity
		case expression.Ne:
			return 1 - defaultEqSelectivity
		default:
			return defaultRangeSelectivity
		}
	}
	switch op {
	case expression.Eq:
		return st.EstimateEquals(id, lit)
	case expression.Ne:
		return st.EstimateNotEquals(id, lit)
	case expression.Lt, expression.Le:
		return st.EstimateRange(id, nil, &lit)
	case expression.Gt, expression.Ge:
		return st.EstimateRange(id, &lit, nil)
	case expression.Like:
		return defaultLikeSelectivity
	case expression.NotLike:
		return 1 - defaultLikeSelectivity
	default:
		return defaultOtherSelectivity
	}
}

func (e *Estimator) originStats(input lqp.Node, index int) (*statistics.TableStatistics, types.ColumnID, bool) {
	origin, id, ok := columnOrigin(input, index)
	if !ok {
		return nil, 0, false
	}
	st := e.tableStats(origin)
	if st == nil {
		return nil, 0, false
	}
	return st, id, true
}

// columnLiteral matches `column OP literal` (either side).
func columnLiteral(p *expression.Comparison) (*expression.BoundColumn, types.Value, expression.ComparisonOp, bool) {
	if col, ok := p.Left.(*expression.BoundColumn); ok {
		if v, ok := literalValue(p.Right); ok {
			return col, v, p.Op, true
		}
	}
	if col, ok := p.Right.(*expression.BoundColumn); ok {
		if v, ok := literalValue(p.Left); ok {
			return col, v, p.Op.Flip(), true
		}
	}
	return nil, types.NullValue, p.Op, false
}

func literalValue(e expression.Expression) (types.Value, bool) {
	if l, ok := e.(*expression.Literal); ok {
		return l.Value, true
	}
	return types.NullValue, false
}

func clamp01(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Cardinality estimates the output row count of a plan node.
func (e *Estimator) Cardinality(node lqp.Node) float64 {
	switch n := node.(type) {
	case *lqp.StoredTableNode:
		if n.Table == nil {
			return 1000
		}
		return float64(n.Table.RowCount())
	case *lqp.DummyTableNode:
		return 1
	case *lqp.ValidateNode, *lqp.AliasNode, *lqp.SortNode, *lqp.ProjectionNode:
		return e.Cardinality(node.Inputs()[0])
	case *lqp.PredicateNode:
		in := e.Cardinality(n.Inputs()[0])
		return in * clamp01(e.Selectivity(n.Predicate, n.Inputs()[0]))
	case *lqp.LimitNode:
		return math.Min(float64(n.N), e.Cardinality(n.Inputs()[0]))
	case *lqp.AggregateNode:
		in := e.Cardinality(n.Inputs()[0])
		if len(n.GroupBy) == 0 {
			return 1
		}
		ndv := 1.0
		for _, g := range n.GroupBy {
			if bc, ok := g.(*expression.BoundColumn); ok {
				if st, id, ok := e.originStats(n.Inputs()[0], bc.Index); ok {
					ndv *= math.Max(1, st.Column(id).DistinctCount)
					continue
				}
			}
			ndv *= 10
		}
		return math.Min(in, ndv)
	case *lqp.JoinNode:
		return e.joinCardinality(n)
	default:
		return 1000
	}
}

func (e *Estimator) joinCardinality(n *lqp.JoinNode) float64 {
	left := e.Cardinality(n.Inputs()[0])
	right := e.Cardinality(n.Inputs()[1])
	switch n.Kind {
	case lqp.JoinSemi:
		return left * 0.5
	case lqp.JoinAnti:
		return left * 0.5
	}
	if len(n.Predicates) == 0 {
		return left * right // cross product
	}
	// Equi predicates contribute 1/max(ndv); others a fixed factor.
	card := left * right
	nLeft := len(n.Inputs()[0].Schema())
	for _, p := range n.Predicates {
		cmp, ok := p.(*expression.Comparison)
		if ok && cmp.Op == expression.Eq {
			lc, lok := cmp.Left.(*expression.BoundColumn)
			rc, rok := cmp.Right.(*expression.BoundColumn)
			if lok && rok {
				ndv := e.equiNdv(n, lc.Index, rc.Index, nLeft)
				card /= math.Max(1, ndv)
				continue
			}
		}
		card *= defaultRangeSelectivity
	}
	switch n.Kind {
	case lqp.JoinLeft:
		card = math.Max(card, left)
	case lqp.JoinRight:
		card = math.Max(card, right)
	case lqp.JoinFull:
		card = math.Max(card, left+right)
	}
	return math.Max(card, 1)
}

func (e *Estimator) equiNdv(n *lqp.JoinNode, a, b, nLeft int) float64 {
	ndv := func(idx int) float64 {
		var side lqp.Node
		localIdx := idx
		if idx < nLeft {
			side = n.Inputs()[0]
		} else {
			side = n.Inputs()[1]
			localIdx = idx - nLeft
		}
		if st, id, ok := e.originStats(side, localIdx); ok {
			return math.Max(1, st.Column(id).DistinctCount)
		}
		return 100
	}
	return math.Max(ndv(a), ndv(b))
}
