package sqlparser

// PlaceholderTokens counts the '?' and $N tokens of a SQL text (-1 when it
// does not lex): what FuzzParse holds the Rewrite walk against.
func PlaceholderTokens(sql string) int {
	toks, err := lex(sql)
	if err != nil {
		return -1
	}
	n := 0
	for _, t := range toks {
		if t.kind == tokParam || t.kind == tokOperator && t.text == "?" {
			n++
		}
	}
	return n
}
