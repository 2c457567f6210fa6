package sqlparser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hyrise/internal/expression"
	"hyrise/internal/types"
)

// Parse parses a SQL string that may contain several ';'-separated
// statements.
func Parse(sql string) ([]Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	var stmts []Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().kind == tokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptOp(";") && p.peek().kind != tokEOF {
			return nil, p.errorf("expected ';' or end of input")
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("sqlparser: empty statement")
	}
	return stmts, nil
}

// ParseOne parses exactly one statement.
func ParseOne(sql string) (Statement, error) {
	stmts, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqlparser: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

type parser struct {
	toks       []token
	i          int
	src        string
	subqueryID int
	paramID    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peek2() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errorf(format string, args ...any) error {
	t := p.peek()
	ctx := p.src
	if t.pos < len(ctx) {
		end := min(t.pos+20, len(ctx))
		ctx = ctx[t.pos:end]
	}
	return fmt.Errorf("sqlparser: %s (near %q)", fmt.Sprintf(format, args...), ctx)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tokOperator && t.text == op {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q", op)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	return "", p.errorf("expected identifier")
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword && !(t.kind == tokOperator && t.text == "(") {
		return nil, p.errorf("expected statement")
	}
	switch t.text {
	case "SELECT", "(":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "BEGIN":
		p.i++
		return &TransactionStatement{Kind: TxBegin}, nil
	case "COMMIT":
		p.i++
		return &TransactionStatement{Kind: TxCommit}, nil
	case "ROLLBACK":
		p.i++
		return &TransactionStatement{Kind: TxRollback}, nil
	default:
		return nil, p.errorf("unsupported statement %s", t.text)
	}
}

// --- SELECT -----------------------------------------------------------------

func (p *parser) parseSelect() (*SelectStatement, error) {
	// Tolerate redundant parentheses around a whole SELECT.
	if p.peek().kind == tokOperator && p.peek().text == "(" {
		p.i++
		s, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStatement{Limit: -1}
	s.Distinct = p.acceptKeyword("DISTINCT")
	p.acceptKeyword("ALL")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, ref)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		p.i++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// qualifier.* form
	if p.peek().kind == tokIdent && p.peek2().kind == tokOperator && p.peek2().text == "." {
		save := p.i
		qual := p.next().text
		p.next() // '.'
		if p.acceptOp("*") {
			return SelectItem{Star: true, Qualifier: qual}, nil
		}
		p.i = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	ref, err := p.parseTablePrimary()
	if err != nil {
		return TableRef{}, err
	}
	for {
		kind, ok := p.acceptJoinKeyword()
		if !ok {
			return ref, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return TableRef{}, err
		}
		join := &JoinRef{Kind: kind, Left: ref, Right: right}
		if kind != JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return TableRef{}, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return TableRef{}, err
			}
			join.On = on
		}
		ref = TableRef{Join: join}
	}
}

// acceptJoinKeyword consumes JOIN / INNER JOIN / LEFT [OUTER] JOIN /
// RIGHT [OUTER] JOIN / FULL [OUTER] JOIN / CROSS JOIN.
func (p *parser) acceptJoinKeyword() (JoinKind, bool) {
	switch {
	case p.acceptKeyword("JOIN"):
		return JoinInner, true
	case p.acceptKeyword("INNER"):
		_ = p.expectKeyword("JOIN")
		return JoinInner, true
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		_ = p.expectKeyword("JOIN")
		return JoinLeft, true
	case p.acceptKeyword("RIGHT"):
		p.acceptKeyword("OUTER")
		_ = p.expectKeyword("JOIN")
		return JoinRight, true
	case p.acceptKeyword("FULL"):
		p.acceptKeyword("OUTER")
		_ = p.expectKeyword("JOIN")
		return JoinFull, true
	case p.acceptKeyword("CROSS"):
		_ = p.expectKeyword("JOIN")
		return JoinCross, true
	default:
		return JoinInner, false
	}
}

func (p *parser) parseTablePrimary() (TableRef, error) {
	if p.acceptOp("(") {
		// Derived table.
		if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
			sub, err := p.parseSelect()
			if err != nil {
				return TableRef{}, err
			}
			if err := p.expectOp(")"); err != nil {
				return TableRef{}, err
			}
			ref := TableRef{Subquery: sub}
			p.acceptKeyword("AS")
			alias, err := p.expectIdent()
			if err != nil {
				return TableRef{}, fmt.Errorf("sqlparser: derived table needs an alias: %w", err)
			}
			ref.Alias = alias
			return ref, nil
		}
		// Parenthesized join tree.
		ref, err := p.parseTableRef()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expectOp(")"); err != nil {
			return TableRef{}, err
		}
		return ref, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// --- expressions --------------------------------------------------------------

func (p *parser) parseExpr() (expression.Expression, error) { return p.parseOr() }

func (p *parser) parseOr() (expression.Expression, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &expression.Logical{Op: expression.Or, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expression.Expression, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &expression.Logical{Op: expression.And, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (expression.Expression, error) {
	if p.acceptKeyword("NOT") {
		child, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expression.Not{Child: child}, nil
	}
	return p.parsePredicate()
}

// parsePredicate parses comparisons and the IS/IN/BETWEEN/LIKE suffixes.
func (p *parser) parsePredicate() (expression.Expression, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		// Comparison operators.
		if op, ok := p.acceptComparisonOp(); ok {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &expression.Comparison{Op: op, Left: left, Right: right}
			continue
		}
		negate := false
		save := p.i
		if p.acceptKeyword("NOT") {
			negate = true
		}
		switch {
		case p.acceptKeyword("BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			var e expression.Expression = &expression.Between{Child: left, Lo: lo, Hi: hi}
			if negate {
				e = &expression.Not{Child: e}
			}
			left = e
		case p.acceptKeyword("LIKE"):
			pattern, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			op := expression.Like
			if negate {
				op = expression.NotLike
			}
			left = &expression.Comparison{Op: op, Left: left, Right: pattern}
		case p.acceptKeyword("IN"):
			in, err := p.parseInSuffix(left, negate)
			if err != nil {
				return nil, err
			}
			left = in
		case !negate && p.acceptKeyword("IS"):
			neg := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &expression.IsNull{Child: left, Negate: neg}
		default:
			if negate {
				p.i = save // NOT belongs to an outer context
			}
			return left, nil
		}
	}
}

func (p *parser) acceptComparisonOp() (expression.ComparisonOp, bool) {
	t := p.peek()
	if t.kind != tokOperator {
		return 0, false
	}
	var op expression.ComparisonOp
	switch t.text {
	case "=":
		op = expression.Eq
	case "<>":
		op = expression.Ne
	case "<":
		op = expression.Lt
	case "<=":
		op = expression.Le
	case ">":
		op = expression.Gt
	case ">=":
		op = expression.Ge
	default:
		return 0, false
	}
	p.i++
	return op, true
}

func (p *parser) parseInSuffix(left expression.Expression, negate bool) (expression.Expression, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		p.subqueryID++
		return &expression.In{
			Child:    left,
			Subquery: &expression.Subquery{Plan: sub, ID: p.subqueryID},
			Negate:   negate,
		}, nil
	}
	var list []expression.Expression
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &expression.In{Child: left, List: list, Negate: negate}, nil
}

func (p *parser) parseAdditive() (expression.Expression, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op expression.ArithmeticOp
		switch {
		case p.acceptOp("+"):
			op = expression.Add
		case p.acceptOp("-"):
			op = expression.Sub
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &expression.Arithmetic{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (expression.Expression, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op expression.ArithmeticOp
		switch {
		case p.acceptOp("*"):
			op = expression.Mul
		case p.acceptOp("/"):
			op = expression.Div
		case p.acceptOp("%"):
			op = expression.Mod
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &expression.Arithmetic{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (expression.Expression, error) {
	if p.acceptOp("-") {
		// As in PostgreSQL, the minus of an integer literal belongs to it:
		// -9223372036854775808 is the INT minimum.
		if t := p.peek(); t.kind == tokNumber && !strings.ContainsAny(t.text, ".eE") {
			if n, err := strconv.ParseInt("-"+t.text, 10, 64); err == nil {
				p.i++
				return expression.NewLiteral(types.Int(n)), nil
			}
		}
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := child.(*expression.Literal); ok {
			switch {
			case lit.Value.Type == types.TypeInt64 && lit.Value.I != math.MinInt64: // -(INT minimum) fails at run time
				return expression.NewLiteral(types.Int(-lit.Value.I)), nil
			case lit.Value.Type == types.TypeFloat64:
				return expression.NewLiteral(types.Float(-lit.Value.F)), nil
			}
		}
		return &expression.Negation{Child: child}, nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expression.Expression, error) {
	t := p.peek()
	switch t.kind {
	case tokParam:
		p.i++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errorf("bad parameter number $%s", t.text)
		}
		// $N is 1-based on the wire; Parameter IDs are 0-based slots. Keep
		// the sequential '?' counter past the highest explicit number so the
		// two styles can mix without colliding.
		if n > p.paramID {
			p.paramID = n
		}
		return &expression.Parameter{ID: n - 1}, nil
	case tokNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return expression.NewLiteral(types.Float(f)), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return expression.NewLiteral(types.Int(n)), nil
	case tokString:
		p.i++
		return expression.NewLiteral(types.Str(t.text)), nil
	case tokOperator:
		switch t.text {
		case "?":
			p.i++
			e := &expression.Parameter{ID: p.paramID}
			p.paramID++
			return e, nil
		case "(":
			p.i++
			if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				p.subqueryID++
				return &expression.Subquery{Plan: sub, ID: p.subqueryID}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.i++
			return expression.NewLiteral(types.NullValue), nil
		case "TRUE":
			p.i++
			return expression.NewLiteral(types.Bool(true)), nil
		case "FALSE":
			p.i++
			return expression.NewLiteral(types.Bool(false)), nil
		case "DATE":
			// date 'YYYY-MM-DD' is a string in the paper's dialect.
			p.i++
			s := p.peek()
			if s.kind != tokString {
				return nil, p.errorf("expected string after DATE")
			}
			p.i++
			return expression.NewLiteral(types.Str(s.text)), nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.i++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			p.subqueryID++
			return &expression.Exists{Subquery: &expression.Subquery{Plan: sub, ID: p.subqueryID}}, nil
		case "SUBSTRING":
			return p.parseSubstring()
		}
	case tokIdent:
		// Function call or column reference.
		if p.peek2().kind == tokOperator && p.peek2().text == "(" {
			return p.parseFunctionCall()
		}
		p.i++
		name := t.text
		if p.acceptOp(".") {
			colTok := p.peek()
			if colTok.kind != tokIdent {
				return nil, p.errorf("expected column name after %q.", name)
			}
			p.i++
			return &expression.ColumnRef{Qualifier: name, Name: colTok.text}, nil
		}
		return &expression.ColumnRef{Name: name}, nil
	}
	return nil, p.errorf("unexpected token")
}

func (p *parser) parseCase() (expression.Expression, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &expression.Case{}
	for p.acceptKeyword("WHEN") {
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expression.CaseWhen{When: when, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = els
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseSubstring() (expression.Expression, error) {
	if err := p.expectKeyword("SUBSTRING"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	str, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var from, forLen expression.Expression
	if p.acceptKeyword("FROM") {
		if from, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if p.acceptKeyword("FOR") {
			if forLen, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
	} else if p.acceptOp(",") {
		if from, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if p.acceptOp(",") {
			if forLen, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if from == nil {
		return nil, p.errorf("SUBSTRING requires a start position")
	}
	if forLen == nil {
		forLen = expression.NewLiteral(types.Int(1 << 30))
	}
	return &expression.FunctionCall{Name: "substring", Args: []expression.Expression{str, from, forLen}}, nil
}

func (p *parser) parseFunctionCall() (expression.Expression, error) {
	name := strings.ToLower(p.next().text)
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	// Aggregates.
	switch name {
	case "count":
		if p.acceptOp("*") {
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &expression.Aggregate{Fn: expression.AggCountStar}, nil
		}
		distinct := p.acceptKeyword("DISTINCT")
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		fn := expression.AggCount
		if distinct {
			fn = expression.AggCountDistinct
		}
		return &expression.Aggregate{Fn: fn, Arg: arg}, nil
	case "sum", "avg", "min", "max":
		p.acceptKeyword("DISTINCT") // SUM(DISTINCT) unsupported, treated as SUM
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		fn := map[string]expression.AggregateFn{
			"sum": expression.AggSum, "avg": expression.AggAvg,
			"min": expression.AggMin, "max": expression.AggMax,
		}[name]
		return &expression.Aggregate{Fn: fn, Arg: arg}, nil
	}
	// Scalar functions.
	var args []expression.Expression
	if !p.acceptOp(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return &expression.FunctionCall{Name: name, Args: args}, nil
}

// --- DDL / DML ----------------------------------------------------------------

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("VIEW") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		bodyStart := p.peek().pos
		body, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		bodyEnd := p.peek().pos
		sql := strings.TrimSpace(p.src[bodyStart:min(bodyEnd, len(p.src))])
		return &CreateViewStatement{Name: name, SQL: sql, Body: body}, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStatement{Name: name}
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		dt, err := p.parseColumnType()
		if err != nil {
			return nil, err
		}
		col := ColumnDef{Name: colName, Type: dt, Nullable: true}
		for {
			switch {
			case p.acceptKeyword("NOT"):
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				col.Nullable = false
			case p.acceptKeyword("PRIMARY"):
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				col.Nullable = false
			case p.acceptKeyword("NULL"):
				// explicit NULL
			default:
				goto colDone
			}
		}
	colDone:
		stmt.Columns = append(stmt.Columns, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseColumnType() (types.DataType, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return 0, p.errorf("expected column type")
	}
	p.i++
	var dt types.DataType
	switch t.text {
	case "INT", "INTEGER", "BIGINT":
		dt = types.TypeInt64
	case "FLOAT", "DOUBLE", "DECIMAL":
		dt = types.TypeFloat64
	case "VARCHAR", "CHAR", "TEXT", "DATE":
		dt = types.TypeString
	default:
		return 0, p.errorf("unsupported column type %s", t.text)
	}
	// Optional (precision[, scale]).
	if p.acceptOp("(") {
		for p.peek().kind == tokNumber || (p.peek().kind == tokOperator && p.peek().text == ",") {
			p.i++
		}
		if err := p.expectOp(")"); err != nil {
			return 0, err
		}
	}
	return dt, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	isView := false
	if p.acceptKeyword("VIEW") {
		isView = true
	} else if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropStatement{Name: name, IsView: isView}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStatement{Table: table}
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []expression.Expression
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStatement{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, SetClause{Column: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStatement{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}
