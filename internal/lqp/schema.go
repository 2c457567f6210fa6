// Package lqp implements Hyrise's Logical Query Plan (paper §2.6): a DAG of
// nodes loosely resembling relational algebra, produced from the parser's
// AST by the SQL-to-LQP translator, optimized by rule-based rewrites, and
// finally translated into physical operators.
package lqp

import (
	"errors"
	"fmt"
	"strings"

	"hyrise/internal/types"
)

// Resolution error kinds, distinguished so the translator can fall back to
// outer scopes only on "not found" (never on ambiguity).
var (
	// ErrColumnNotFound marks a name that matches no column.
	ErrColumnNotFound = errors.New("column not found")
	// ErrColumnAmbiguous marks a name matching several columns.
	ErrColumnAmbiguous = errors.New("column ambiguous")
)

// Column describes one output column of an LQP node.
type Column struct {
	// Qualifier is the table name or alias that produced the column; empty
	// above projections/aggregations.
	Qualifier string
	// Name is the (lower-case) column name.
	Name string
	// DT is the column's data type.
	DT types.DataType
	// Nullable propagates schema nullability (outer joins force it).
	Nullable bool
}

// Schema is the ordered output column list of a node.
type Schema []Column

// columnType is the type of column i, or NULL past the end.
func (s Schema) columnType(i int) types.DataType {
	if i < len(s) {
		return s[i].DT
	}
	return types.TypeNull
}

// Resolve finds the index of the column matching an (optionally qualified)
// name. Unqualified lookups across multiple matches are ambiguous.
func (s Schema) Resolve(qualifier, name string) (int, error) {
	name = strings.ToLower(name)
	qualifier = strings.ToLower(qualifier)
	found := -1
	for i, c := range s {
		if c.Name != name {
			continue
		}
		if qualifier != "" && !strings.EqualFold(c.Qualifier, qualifier) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("lqp: column %q: %w", displayName(qualifier, name), ErrColumnAmbiguous)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("lqp: column %q: %w", displayName(qualifier, name), ErrColumnNotFound)
	}
	return found, nil
}

func displayName(qualifier, name string) string {
	if qualifier != "" {
		return qualifier + "." + name
	}
	return name
}

// WithQualifier returns a copy of the schema with every column's qualifier
// replaced (derived-table aliasing).
func (s Schema) WithQualifier(q string) Schema {
	out := make(Schema, len(s))
	for i, c := range s {
		out[i] = c
		out[i].Qualifier = q
	}
	return out
}

// Names returns the output column names.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}
