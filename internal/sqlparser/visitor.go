package sqlparser

// WalkExpr visits e and every sub-expression in depth-first order. The
// visit function may return false to prune the subtree.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch t := e.(type) {
	case *BinaryExpr:
		WalkExpr(t.L, visit)
		WalkExpr(t.R, visit)
	case *UnaryExpr:
		WalkExpr(t.E, visit)
	case *InExpr:
		WalkExpr(t.E, visit)
		for _, x := range t.List {
			WalkExpr(x, visit)
		}
	case *BetweenExpr:
		WalkExpr(t.E, visit)
		WalkExpr(t.Lo, visit)
		WalkExpr(t.Hi, visit)
	case *LikeExpr:
		WalkExpr(t.E, visit)
		WalkExpr(t.Pattern, visit)
	case *IsNullExpr:
		WalkExpr(t.E, visit)
	case *FuncExpr:
		for _, a := range t.Args {
			WalkExpr(a, visit)
		}
	case *CaseExpr:
		WalkExpr(t.Operand, visit)
		for _, w := range t.Whens {
			WalkExpr(w.When, visit)
			WalkExpr(w.Then, visit)
		}
		WalkExpr(t.Else, visit)
	}
}

// WalkStatement walks every expression of a DML statement with WalkExpr.
func WalkStatement(stmt Statement, visit func(Expr) bool) {
	switch t := stmt.(type) {
	case *SelectStmt:
		for _, it := range t.Items {
			WalkExpr(it.Expr, visit)
		}
		for _, ref := range t.From {
			WalkExpr(ref.On, visit)
		}
		WalkExpr(t.Where, visit)
		for _, e := range t.GroupBy {
			WalkExpr(e, visit)
		}
		WalkExpr(t.Having, visit)
		for _, o := range t.OrderBy {
			WalkExpr(o.Expr, visit)
		}
		if t.Limit != nil {
			WalkExpr(t.Limit.Offset, visit)
			WalkExpr(t.Limit.Count, visit)
		}
	case *InsertStmt:
		for _, row := range t.Rows {
			for _, e := range row {
				WalkExpr(e, visit)
			}
		}
	case *UpdateStmt:
		for _, a := range t.Set {
			WalkExpr(a.Value, visit)
		}
		WalkExpr(t.Where, visit)
	case *DeleteStmt:
		WalkExpr(t.Where, visit)
	}
}

// CloneExpr returns a deep copy of the expression.
func CloneExpr(e Expr) Expr { return MapExpr(e, nil) }

// MapExpr returns a deep copy of the expression in which every node that
// replace maps to a non-nil expression is that expression instead; the
// subtree of a replaced node is not visited. A nil replace copies.
func MapExpr(e Expr, replace func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if replace != nil {
		if r := replace(e); r != nil {
			return r
		}
	}
	m := func(x Expr) Expr { return MapExpr(x, replace) }
	switch t := e.(type) {
	case *Literal:
		c := *t
		return &c
	case *Placeholder:
		c := *t
		return &c
	case *ColumnRef:
		c := *t
		return &c
	case *BinaryExpr:
		return &BinaryExpr{Op: t.Op, L: m(t.L), R: m(t.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: t.Op, E: m(t.E)}
	case *InExpr:
		list := make([]Expr, len(t.List))
		for i, x := range t.List {
			list[i] = m(x)
		}
		return &InExpr{E: m(t.E), List: list, Not: t.Not}
	case *BetweenExpr:
		return &BetweenExpr{E: m(t.E), Lo: m(t.Lo), Hi: m(t.Hi), Not: t.Not}
	case *LikeExpr:
		return &LikeExpr{E: m(t.E), Pattern: m(t.Pattern), Not: t.Not}
	case *IsNullExpr:
		return &IsNullExpr{E: m(t.E), Not: t.Not}
	case *FuncExpr:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = m(a)
		}
		return &FuncExpr{Name: t.Name, Args: args, Star: t.Star, Distinct: t.Distinct}
	case *CaseExpr:
		whens := make([]WhenClause, len(t.Whens))
		for i, w := range t.Whens {
			whens[i] = WhenClause{When: m(w.When), Then: m(w.Then)}
		}
		return &CaseExpr{Operand: m(t.Operand), Whens: whens, Else: m(t.Else)}
	default:
		return e
	}
}

// CloneStatement deep-copies a statement so the rewriter can derive a
// statement's data-node form without disturbing the parsed original (which
// the kernel keeps per shape).
func CloneStatement(stmt Statement) Statement {
	switch t := stmt.(type) {
	case *SelectStmt:
		c := &SelectStmt{
			Distinct:  t.Distinct,
			ForUpdate: t.ForUpdate,
		}
		c.Items = make([]SelectItem, len(t.Items))
		for i, item := range t.Items {
			c.Items[i] = SelectItem{
				Expr:      CloneExpr(item.Expr),
				Alias:     item.Alias,
				Star:      item.Star,
				StarTable: item.StarTable,
			}
		}
		c.From = make([]TableRef, len(t.From))
		for i, ref := range t.From {
			c.From[i] = TableRef{Name: ref.Name, Alias: ref.Alias, Join: ref.Join, On: CloneExpr(ref.On)}
		}
		c.Where = CloneExpr(t.Where)
		if len(t.GroupBy) > 0 {
			c.GroupBy = make([]Expr, len(t.GroupBy))
			for i, e := range t.GroupBy {
				c.GroupBy[i] = CloneExpr(e)
			}
		}
		c.Having = CloneExpr(t.Having)
		if len(t.OrderBy) > 0 {
			c.OrderBy = make([]OrderItem, len(t.OrderBy))
			for i, o := range t.OrderBy {
				c.OrderBy[i] = OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc}
			}
		}
		if t.Limit != nil {
			c.Limit = &Limit{Offset: CloneExpr(t.Limit.Offset), Count: CloneExpr(t.Limit.Count)}
		}
		return c
	case *InsertStmt:
		c := &InsertStmt{Table: t.Table}
		c.Columns = append([]string(nil), t.Columns...)
		c.Rows = make([][]Expr, len(t.Rows))
		for i, row := range t.Rows {
			r := make([]Expr, len(row))
			for j, e := range row {
				r[j] = CloneExpr(e)
			}
			c.Rows[i] = r
		}
		return c
	case *UpdateStmt:
		c := &UpdateStmt{Table: t.Table, Alias: t.Alias, Where: CloneExpr(t.Where)}
		c.Set = make([]Assignment, len(t.Set))
		for i, a := range t.Set {
			c.Set[i] = Assignment{Column: a.Column, Value: CloneExpr(a.Value)}
		}
		return c
	case *DeleteStmt:
		return &DeleteStmt{Table: t.Table, Alias: t.Alias, Where: CloneExpr(t.Where)}
	case *CreateTableStmt:
		c := &CreateTableStmt{Table: t.Table, IfNotExists: t.IfNotExists}
		c.Columns = append([]ColumnDef(nil), t.Columns...)
		c.PrimaryKey = append([]string(nil), t.PrimaryKey...)
		return c
	case *DropTableStmt:
		c := *t
		return &c
	case *TruncateStmt:
		c := *t
		return &c
	case *CreateIndexStmt:
		c := &CreateIndexStmt{Name: t.Name, Table: t.Table}
		c.Columns = append([]string(nil), t.Columns...)
		return c
	case *BeginStmt:
		return &BeginStmt{}
	case *CommitStmt:
		return &CommitStmt{}
	case *RollbackStmt:
		c := *t
		return &c
	case *SavepointStmt:
		c := *t
		return &c
	case *XAStmt:
		c := *t
		return &c
	case *ShowStmt:
		c := *t
		return &c
	case *SetStmt:
		c := *t
		return &c
	default:
		return stmt
	}
}

// TableNames returns every table referenced by the statement, in order of
// appearance. The router uses this to pick a route strategy.
func TableNames(stmt Statement) []string {
	switch t := stmt.(type) {
	case *SelectStmt:
		names := make([]string, 0, len(t.From))
		for _, ref := range t.From {
			names = append(names, ref.Name)
		}
		return names
	case *InsertStmt:
		return []string{t.Table}
	case *UpdateStmt:
		return []string{t.Table}
	case *DeleteStmt:
		return []string{t.Table}
	case *CreateTableStmt:
		return []string{t.Table}
	case *DropTableStmt:
		return []string{t.Table}
	case *TruncateStmt:
		return []string{t.Table}
	case *CreateIndexStmt:
		return []string{t.Table}
	default:
		return nil
	}
}
