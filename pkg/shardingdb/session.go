package shardingdb

import (
	"errors"
	"io"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
)

// Value is the public value type (alias of the internal one, so values
// flow through without conversion).
type Value = sqltypes.Value

// Row is one result row.
type Row = sqltypes.Row

func sqltypesNewInt(v int64) Value     { return sqltypes.NewInt(v) }
func sqltypesNewFloat(v float64) Value { return sqltypes.NewFloat(v) }
func sqltypesNewString(v string) Value { return sqltypes.NewString(v) }
func sqltypesNewBool(v bool) Value     { return sqltypes.NewBool(v) }

// Rows is a streaming query result.
type Rows struct {
	rs resource.ResultSet
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.rs.Columns() }

// Next returns the next row, or (nil, false) at the end.
func (r *Rows) Next() (Row, bool, error) {
	row, err := r.rs.Next()
	if errors.Is(err, io.EOF) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// ReadAll drains the remaining rows and closes the result.
func (r *Rows) ReadAll() ([]Row, error) { return resource.ReadAll(r.rs) }

// Close releases the result (and any node cursors behind it).
func (r *Rows) Close() error { return r.rs.Close() }

// ExecResult reports a DML outcome.
type ExecResult struct {
	Affected     int64
	LastInsertID int64
}

// Session is one client session over the embedded kernel.
type Session struct {
	inner *core.Session
}

// Query runs a statement that returns rows (SQL or DistSQL).
func (s *Session) Query(sql string, args ...Value) (*Rows, error) {
	rs, err := s.inner.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return &Rows{rs: rs}, nil
}

// QueryAll is Query + ReadAll.
func (s *Session) QueryAll(sql string, args ...Value) ([]Row, error) {
	rows, err := s.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.ReadAll()
}

// Exec runs a statement that returns no rows (SQL or DistSQL).
func (s *Session) Exec(sql string, args ...Value) (ExecResult, error) {
	r, err := s.inner.Exec(sql, args...)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Affected: r.Affected, LastInsertID: r.LastInsertID}, nil
}

// Begin starts a distributed transaction of the session's current type.
func (s *Session) Begin() error {
	_, err := s.inner.Exec("BEGIN")
	return err
}

// Commit commits the open transaction.
func (s *Session) Commit() error {
	_, err := s.inner.Exec("COMMIT")
	return err
}

// Rollback aborts the open transaction.
func (s *Session) Rollback() error {
	_, err := s.inner.Exec("ROLLBACK")
	return err
}

// InTransaction reports whether a transaction is open.
func (s *Session) InTransaction() bool { return s.inner.InTransaction() }

// Close rolls back any open transaction and releases the session.
func (s *Session) Close() { s.inner.Close() }

// WithTx runs fn inside a transaction, committing on nil error and
// rolling back otherwise.
func (s *Session) WithTx(fn func(*Session) error) error {
	if err := s.Begin(); err != nil {
		return err
	}
	if err := fn(s); err != nil {
		s.Rollback()
		return err
	}
	return s.Commit()
}
