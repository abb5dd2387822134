// Package shadow implements the shadow-database feature (paper Section
// IV-C): statements identified as test traffic — by a configured shadow
// column carrying a marker value — are diverted to shadow data sources,
// so load tests run against production topology without touching
// production data.
package shadow

import (
	"strings"

	"shardingsphere/internal/governor"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// Config declares the shadow determination and the source mapping.
type Config struct {
	// Column is the shadow marker column (e.g. "is_shadow").
	Column string
	// Value is the marker value that makes a statement shadow traffic
	// (default 1).
	Value sqltypes.Value
	// Mapping maps production data source names to their shadow peers.
	Mapping map[string]string
}

// Feature implements the kernel's SourceResolver hook.
type Feature struct {
	column  string
	value   sqltypes.Value
	mapping map[string]string
}

// New builds the feature.
func New(cfg Config) *Feature {
	v := cfg.Value
	if v.IsNull() {
		v = sqltypes.NewInt(1)
	}
	return &Feature{
		column:  strings.ToLower(cfg.Column),
		value:   v,
		mapping: cfg.Mapping,
	}
}

// Name implements core.Feature.
func (f *Feature) Name() string { return "shadow" }

// ResolveSource diverts shadow statements to the mapped shadow source; a
// shadow source's health does not enter into it.
func (f *Feature) ResolveSource(ds string, readOnly, inTx bool, stmt sqlparser.Statement, _ *governor.Governor) string {
	shadowDS, ok := f.mapping[ds]
	if !ok {
		return ds
	}
	if f.isShadow(stmt) {
		return shadowDS
	}
	return ds
}

// isShadow inspects the statement for the marker: INSERT rows that set
// the shadow column to the marker value, or WHERE clauses containing
// "column = value".
func (f *Feature) isShadow(stmt sqlparser.Statement) bool {
	switch t := stmt.(type) {
	case *sqlparser.InsertStmt:
		col := -1
		for i, c := range t.Columns {
			if strings.ToLower(c) == f.column {
				col = i
				break
			}
		}
		if col < 0 {
			return false
		}
		for _, row := range t.Rows {
			if col < len(row) {
				if lit, ok := row[col].(*sqlparser.Literal); ok && sqltypes.Equal(lit.Val, f.value) {
					return true
				}
			}
		}
		return false
	case *sqlparser.SelectStmt:
		return f.whereMatches(t.Where)
	case *sqlparser.UpdateStmt:
		return f.whereMatches(t.Where)
	case *sqlparser.DeleteStmt:
		return f.whereMatches(t.Where)
	default:
		return false
	}
}

func (f *Feature) whereMatches(where sqlparser.Expr) bool {
	match := false
	sqlparser.WalkExpr(where, func(e sqlparser.Expr) bool {
		b, ok := e.(*sqlparser.BinaryExpr)
		if !ok || b.Op != sqlparser.OpEQ {
			return true
		}
		ref, okL := b.L.(*sqlparser.ColumnRef)
		lit, okR := b.R.(*sqlparser.Literal)
		if !okL || !okR {
			if ref2, ok2 := b.R.(*sqlparser.ColumnRef); ok2 {
				if lit2, ok3 := b.L.(*sqlparser.Literal); ok3 {
					ref, lit, okL, okR = ref2, lit2, true, true
				}
			}
		}
		if okL && okR && strings.ToLower(ref.Name) == f.column && sqltypes.Equal(lit.Val, f.value) {
			match = true
			return false
		}
		return true
	})
	return match
}
