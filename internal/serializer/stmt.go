package serializer

import (
	"fmt"

	"hyperq/internal/catalog"
	"hyperq/internal/xtra"
)

// statement renders a bound statement as target SQL.
func (w *writer) statement(stmt xtra.Statement) (string, error) {
	switch t := stmt.(type) {
	case *xtra.Query:
		b, err := w.fold(t.Root)
		if err != nil {
			return "", err
		}
		return w.render(b), nil
	case *xtra.Insert:
		return w.insert(t)
	case *xtra.Update:
		return w.update(t)
	case *xtra.Delete:
		return w.delete(t)
	case *xtra.CreateTable:
		return w.createTable(t)
	case *xtra.DropTable:
		if t.IfExists {
			return "DROP TABLE IF EXISTS " + quoteIdent(t.Name), nil
		}
		return "DROP TABLE " + quoteIdent(t.Name), nil
	case *xtra.CreateView:
		// Views are maintained in the gateway catalog and expanded during
		// binding; they are never pushed to the backend in source-dialect
		// text (that would leak SQL-A into SQL-B).
		return "", fmt.Errorf("serializer: views are maintained in the gateway catalog")
	case *xtra.DropView:
		return "DROP VIEW " + quoteIdent(t.Name), nil
	case *xtra.Txn:
		return t.Kind, nil
	case *xtra.NoOp:
		// Statements eliminated by translation produce no backend request;
		// callers treat an empty string as "nothing to send".
		return "", nil
	}
	return "", fmt.Errorf("serializer: unsupported statement %T", stmt)
}

func (w *writer) insert(t *xtra.Insert) (string, error) {
	mark := len(w.buf)
	w.buf = append(w.buf, "INSERT INTO "...)
	w.buf = appendIdent(w.buf, t.Table)
	// Column list from target ordinals: the engine-side binder resolves
	// names, so we emit the names of the input columns' targets. Since the
	// Insert plan carries ordinals only, emission uses the input column
	// names, which the binder set to the target column names.
	w.buf = append(w.buf, " ("...)
	for i, c := range w.columns(t.Input) {
		w.sep(i, ", ")
		w.buf = appendIdent(w.buf, c.Name)
	}
	w.buf = append(w.buf, ')')
	if v, ok := t.Input.(*xtra.Values); ok {
		w.buf = append(w.buf, " VALUES "...)
		for ri, row := range v.Rows {
			w.sep(ri, ", ")
			w.buf = append(w.buf, '(')
			if err := w.appendScalars(row); err != nil {
				return "", err
			}
			w.buf = append(w.buf, ')')
		}
		return w.cut(mark), nil
	}
	b, err := w.fold(t.Input)
	if err != nil {
		return "", err
	}
	w.buf = append(w.buf, ' ')
	w.appendRender(b)
	return w.cut(mark), nil
}

// nameTarget names the columns of an UPDATE or DELETE target.
func (w *writer) nameTarget(cols []xtra.Col) {
	for _, c := range cols {
		w.names[c.ID] = colName{qual: qualTarget, name: c.Name}
	}
}

func (w *writer) update(t *xtra.Update) (string, error) {
	w.nameTarget(t.Cols)
	mark := len(w.buf)
	w.buf = append(w.buf, "UPDATE "...)
	w.buf = appendIdent(w.buf, t.Table)
	w.buf = append(w.buf, " AS "+targetAlias+" SET "...)
	for i, a := range t.Assigns {
		w.sep(i, ", ")
		w.buf = appendIdent(w.buf, t.Cols[a.Ordinal].Name)
		if err := w.appendWrapped(" = ", a.Expr, ""); err != nil {
			return "", err
		}
	}
	if t.Pred != nil {
		if err := w.appendWrapped(" WHERE ", t.Pred, ""); err != nil {
			return "", err
		}
	}
	return w.cut(mark), nil
}

func (w *writer) delete(t *xtra.Delete) (string, error) {
	w.nameTarget(t.Cols)
	mark := len(w.buf)
	w.buf = append(w.buf, "DELETE FROM "...)
	w.buf = appendIdent(w.buf, t.Table)
	w.buf = append(w.buf, " "+targetAlias...)
	if t.Pred != nil {
		if err := w.appendWrapped(" WHERE ", t.Pred, ""); err != nil {
			return "", err
		}
	}
	return w.cut(mark), nil
}

func (w *writer) createTable(t *xtra.CreateTable) (string, error) {
	mark := len(w.buf)
	w.buf = append(w.buf, "CREATE "...)
	switch t.Def.Kind {
	case catalog.KindVolatile:
		w.buf = append(w.buf, "TEMPORARY "...)
	case catalog.KindGlobalTemporary:
		w.buf = append(w.buf, "GLOBAL TEMPORARY "...)
	}
	w.buf = append(w.buf, "TABLE "...)
	if t.IfNotExists {
		w.buf = append(w.buf, "IF NOT EXISTS "...)
	}
	w.buf = appendIdent(w.buf, t.Def.Name)
	if t.Input != nil {
		b, err := w.fold(t.Input)
		if err != nil {
			return "", err
		}
		w.buf = append(w.buf, " AS ("...)
		w.appendRender(b)
		w.buf = append(w.buf, ") WITH DATA"...)
		return w.cut(mark), nil
	}
	w.buf = append(w.buf, " ("...)
	for i, c := range t.Def.Columns {
		w.sep(i, ", ")
		w.buf = appendIdent(w.buf, c.Name)
		w.buf = append(w.buf, ' ')
		w.buf = append(w.buf, c.Type.String()...)
		if c.NotNull {
			w.buf = append(w.buf, " NOT NULL"...)
		}
		if c.Default != "" {
			w.buf = append(w.buf, " DEFAULT "...)
			w.buf = append(w.buf, c.Default...)
		}
	}
	w.buf = append(w.buf, ')')
	return w.cut(mark), nil
}
