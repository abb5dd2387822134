// Package merge implements the result merger (paper Section VI-E): it
// combines the per-data-node result sets of one logical query into a
// single result. A grouped statement's units return partials, which the
// merger drains and runs the statement's combine over through the data
// node's own output stage (sqlexec.Output), so it holds memory in
// proportion to the number of groups. Any other statement streams:
// iteration, or order-by via a priority queue, holds one cursor per node
// and never materializes the result; decorators strip the columns the
// rewriter derived, dedupe a DISTINCT and re-apply pagination. A DISTINCT
// ordered by selected columns dedupes as it streams, one run of equal keys
// at a time; any other is read into memory and deduped there.
package merge

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"strings"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
)

// Merge combines node results according to the rewriter's merge context.
// It consumes the given result sets; the returned set must be closed.
func Merge(results []resource.ResultSet, ctx *rewrite.SelectContext) (resource.ResultSet, error) {
	if len(results) == 0 {
		return resource.NewSliceResultSet(nil, nil), nil
	}
	if ctx == nil {
		ctx = &rewrite.SelectContext{}
	}
	if ctx.Combine != nil {
		return combine(results, ctx)
	}
	// Fast path: one node, nothing to post-process (the single-node
	// optimization of Section VI-C makes this the common case).
	if len(results) == 1 && ctx.Derived == 0 && ctx.Limit == nil {
		return results[0], nil
	}

	var merged resource.ResultSet
	// One set is distinct already unless its rows carry derived keys: a
	// node dedupes (k, key) pairs, the merger k alone.
	dedupe := ctx.Distinct && (len(results) > 1 || ctx.Derived > 0)
	if len(ctx.OrderBy) > 0 {
		ordered, err := newOrderedStreamMerger(results, ctx.OrderBy)
		if err != nil {
			closeAll(results)
			return nil, err
		}
		merged = ordered
		if dedupe && ctx.Derived == 0 && ctx.ColumnKeys {
			merged, dedupe = &distinctSet{inner: ordered, keys: ordered.h.keys}, false
		}
	} else {
		merged = newIterationMerger(results)
	}
	if ctx.Derived > 0 {
		merged = &stripSet{inner: merged, derived: ctx.Derived}
	}
	if dedupe {
		// ReadAll consumed (and closed) the merged stream; nothing else
		// holds the shard cursors.
		cols := merged.Columns()
		rows, err := resource.ReadAll(merged)
		if err != nil {
			return nil, err
		}
		merged = resource.NewSliceResultSet(cols, sqlexec.DistinctRows(rows))
	}
	if ctx.Limit != nil {
		skip := int64(0)
		if ctx.Limit.Revised {
			skip = ctx.Limit.Offset
		}
		merged = &limitSet{inner: merged, skip: skip, take: ctx.Limit.Count}
	}
	return merged, nil
}

// combine drains every unit's partial rows and runs the statement's
// combine over them. Each set is read to its end and closed before the
// next (resource.ReadAll closes the set it drains, success or failure), so
// a unit's connection is released as soon as its rows are in.
func combine(results []resource.ResultSet, ctx *rewrite.SelectContext) (resource.ResultSet, error) {
	var rows []sqltypes.Row
	for i, rs := range results {
		part, err := resource.ReadAll(rs)
		if err != nil {
			closeAll(results[i+1:])
			return nil, err
		}
		if rows == nil {
			rows = make([]sqltypes.Row, 0, len(part)*len(results))
		}
		rows = append(rows, part...)
	}
	res, err := ctx.Combine.Run(rows, ctx.Args)
	if err != nil {
		return nil, err
	}
	return resource.NewSliceResultSet(res.Columns, res.Rows), nil
}

func closeAll(results []resource.ResultSet) {
	for _, rs := range results {
		rs.Close()
	}
}

// resolveKeys maps merge keys to concrete column indexes using the result
// columns (name resolution for star projections).
func resolveKeys(keys []rewrite.OrderKey, cols []string) ([]rewrite.OrderKey, error) {
	out := make([]rewrite.OrderKey, len(keys))
	for i, k := range keys {
		if k.Index >= 0 {
			out[i] = k
			continue
		}
		found := -1
		for j, c := range cols {
			if strings.EqualFold(c, k.Name) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("merge: ordering column %q not in result %v", k.Name, cols)
		}
		out[i] = rewrite.OrderKey{Index: found, Name: k.Name, Desc: k.Desc}
	}
	return out, nil
}

func compareByKeys(a, b sqltypes.Row, keys []rewrite.OrderKey) int {
	for _, k := range keys {
		c := sqltypes.Compare(a[k.Index], b[k.Index])
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// --- iteration merger (paper VI-E case 1) ---

type iterationSet struct {
	results []resource.ResultSet
	idx     int
}

func newIterationMerger(results []resource.ResultSet) resource.ResultSet {
	return &iterationSet{results: results}
}

func (s *iterationSet) Columns() []string {
	if len(s.results) == 0 {
		return nil
	}
	return s.results[0].Columns()
}

func (s *iterationSet) Next() (sqltypes.Row, error) {
	for s.idx < len(s.results) {
		row, err := s.results[s.idx].Next()
		if errors.Is(err, io.EOF) {
			s.results[s.idx].Close()
			s.idx++
			continue
		}
		return row, err
	}
	return nil, io.EOF
}

// NextBatch implements resource.ResultSet natively: the whole window
// moves with one call on the current child cursor, so a remote child's
// row-batch framing passes straight through the merger.
func (s *iterationSet) NextBatch(buf []sqltypes.Row) (int, error) {
	for s.idx < len(s.results) {
		n, err := s.results[s.idx].NextBatch(buf)
		if errors.Is(err, io.EOF) {
			s.results[s.idx].Close()
			s.idx++
			continue
		}
		return n, err
	}
	return 0, io.EOF
}

func (s *iterationSet) Close() error {
	for ; s.idx < len(s.results); s.idx++ {
		s.results[s.idx].Close()
	}
	return nil
}

// --- order-by stream merger (paper VI-E case 2) ---

// cursorBatchRows is the per-shard refill window of the k-way merge:
// one NextBatch call pulls this many rows off a node cursor, so the
// heap's per-row work stays memory-local and a remote child is
// consulted once per window instead of once per row (for remote
// cursors each consult decodes one row-batch frame).
const cursorBatchRows = 128

// cursorProbeRows is a cursor's first window: a fan-out's shards mostly
// return a handful of rows each, and only a shard that fills the probe
// gets the full window.
const cursorProbeRows = 8

// cursor is one node stream with its buffered refill window and head
// row. A materialized node result is its own window: the cursor reads the
// slice in place and never refills.
type cursor struct {
	rs     resource.ResultSet
	buf    []sqltypes.Row // refill window; buf[:n] holds decoded rows
	n, pos int
	head   sqltypes.Row
	closed bool
}

func (c *cursor) advance() (bool, error) {
	for c.pos >= c.n {
		if s, ok := c.rs.(*resource.SliceResultSet); ok {
			if c.buf = s.Rest(); len(c.buf) > 0 {
				c.n, c.pos = len(c.buf), 0
				break
			}
			c.close()
			c.head = nil
			return false, nil
		}
		switch {
		case c.buf == nil:
			c.buf = make([]sqltypes.Row, cursorProbeRows)
		case c.n == len(c.buf) && len(c.buf) < cursorBatchRows:
			c.buf = make([]sqltypes.Row, cursorBatchRows)
		}
		n, err := c.rs.NextBatch(c.buf)
		if errors.Is(err, io.EOF) {
			c.close()
			c.head = nil
			return false, nil
		}
		if err != nil {
			return false, err
		}
		c.n, c.pos = n, 0
	}
	c.head = c.buf[c.pos]
	c.pos++
	return true, nil
}

// close releases the node cursor exactly once — advance closes on
// natural exhaustion, the merged set's Close sweeps the rest, and an
// early-stopped merge may do both.
func (c *cursor) close() {
	if !c.closed {
		c.closed = true
		c.rs.Close()
	}
}

// cursorHeap implements the multiway-merge priority queue the paper
// resorts to.
type cursorHeap struct {
	cursors []*cursor
	keys    []rewrite.OrderKey
}

func (h *cursorHeap) Len() int { return len(h.cursors) }
func (h *cursorHeap) Less(i, j int) bool {
	return compareByKeys(h.cursors[i].head, h.cursors[j].head, h.keys) < 0
}
func (h *cursorHeap) Swap(i, j int) { h.cursors[i], h.cursors[j] = h.cursors[j], h.cursors[i] }
func (h *cursorHeap) Push(x any)    { h.cursors = append(h.cursors, x.(*cursor)) }
func (h *cursorHeap) Pop() any {
	old := h.cursors
	n := len(old)
	c := old[n-1]
	h.cursors = old[:n-1]
	return c
}

type orderedStreamSet struct {
	h    *cursorHeap
	cols []string
}

func newOrderedStreamMerger(results []resource.ResultSet, keys []rewrite.OrderKey) (*orderedStreamSet, error) {
	cols := results[0].Columns()
	resolved, err := resolveKeys(keys, cols)
	if err != nil {
		return nil, err
	}
	h := &cursorHeap{keys: resolved, cursors: make([]*cursor, 0, len(results))}
	cursors := make([]cursor, len(results))
	for i, rs := range results {
		c := &cursors[i]
		c.rs = rs
		ok, err := c.advance()
		if err != nil {
			return nil, err
		}
		if ok {
			h.cursors = append(h.cursors, c)
		}
	}
	heap.Init(h)
	return &orderedStreamSet{h: h, cols: cols}, nil
}

func (s *orderedStreamSet) Columns() []string { return s.cols }

// popOne emits the smallest head and refills that cursor from its
// batched window.
func (s *orderedStreamSet) popOne() (sqltypes.Row, error) {
	c := s.h.cursors[0]
	row := c.head
	ok, err := c.advance()
	if err != nil {
		return nil, err
	}
	if ok {
		heap.Fix(s.h, 0)
	} else {
		heap.Pop(s.h)
	}
	return row, nil
}

func (s *orderedStreamSet) Next() (sqltypes.Row, error) {
	if s.h.Len() == 0 {
		return nil, io.EOF
	}
	return s.popOne()
}

// NextBatch implements resource.ResultSet natively: the heap loop fills
// the caller's buffer directly, so the k-way merge moves batch-at-a-time
// with no per-row interface calls between merger layers.
func (s *orderedStreamSet) NextBatch(buf []sqltypes.Row) (int, error) {
	n := 0
	for n < len(buf) {
		if s.h.Len() == 0 {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		row, err := s.popOne()
		if err != nil {
			return n, err
		}
		buf[n] = row
		n++
	}
	return n, nil
}

func (s *orderedStreamSet) Close() error {
	for _, c := range s.h.cursors {
		c.close()
	}
	s.h.cursors = nil
	return nil
}

// --- decorators ---

// limitSet re-applies pagination across the merged stream. The moment
// the limit is satisfied it closes the inner merged set — which closes
// every still-open shard cursor, releasing their connections and (for
// remote cursors) cancelling the server-side producers — so a LIMIT 10
// over 64 shards stops 63 of them after their first batch instead of
// shipping the rest of the result. Close is idempotent and exhaustive:
// however the stream ends (limit hit, natural EOF, mid-batch abandon),
// the inner set closes exactly once.
type limitSet struct {
	inner       resource.ResultSet
	skip        int64
	take        int64
	given       int64
	innerClosed bool
}

func (s *limitSet) Columns() []string { return s.inner.Columns() }

// closeInner releases the merged stream and all its shard cursors once.
func (s *limitSet) closeInner() error {
	if s.innerClosed {
		return nil
	}
	s.innerClosed = true
	return s.inner.Close()
}

func (s *limitSet) Next() (sqltypes.Row, error) {
	if s.given >= s.take {
		s.closeInner()
		return nil, io.EOF
	}
	for s.skip > 0 {
		if _, err := s.inner.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				s.closeInner()
			}
			return nil, err
		}
		s.skip--
	}
	row, err := s.inner.Next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			s.closeInner()
		}
		return nil, err
	}
	s.given++
	if s.given >= s.take {
		s.closeInner()
	}
	return row, nil
}

// NextBatch implements resource.ResultSet natively: the remaining quota
// bounds the window handed to the inner merge, so batches flow through
// without per-row calls and the final short batch triggers the early
// stop.
func (s *limitSet) NextBatch(buf []sqltypes.Row) (int, error) {
	for s.skip > 0 {
		w := s.skip
		if w > int64(len(buf)) {
			w = int64(len(buf))
		}
		n, err := s.inner.NextBatch(buf[:w])
		s.skip -= int64(n)
		if err != nil {
			if errors.Is(err, io.EOF) {
				s.closeInner()
			}
			return 0, err
		}
	}
	if s.given >= s.take {
		s.closeInner()
		return 0, io.EOF
	}
	w := s.take - s.given
	if w > int64(len(buf)) {
		w = int64(len(buf))
	}
	n, err := s.inner.NextBatch(buf[:w])
	s.given += int64(n)
	if errors.Is(err, io.EOF) {
		s.closeInner()
		if n == 0 {
			return 0, io.EOF
		}
		return n, nil
	}
	if err != nil {
		return n, err
	}
	if s.given >= s.take {
		s.closeInner()
	}
	return n, nil
}

func (s *limitSet) Close() error { return s.closeInner() }

// distinctSet dedupes an ordered stream whose keys are selected table
// columns (rewrite.SelectContext.ColumnKeys, no derived key) as it
// streams. Two rows equal under DISTINCT's identity (sqlexec.DistinctRows)
// have equal keys, and Compare orders a column's values totally, so they
// lie in one run of rows with equal keys: the set keeps the first row of
// each set of equal rows in the current run, and forgets the run when the
// keys change. It holds one run's distinct rows, never the result.
type distinctSet struct {
	inner resource.ResultSet
	keys  []rewrite.OrderKey
	run   sqlexec.Dedup
	head  sqltypes.Row // the current run's first row
}

func (s *distinctSet) Columns() []string { return s.inner.Columns() }

// keep reports whether row is the first of its set in its run.
func (s *distinctSet) keep(row sqltypes.Row) bool {
	if s.head == nil || compareByKeys(s.head, row, s.keys) != 0 {
		s.run.Reset()
		s.head = row
	}
	return s.run.Add(row)
}

func (s *distinctSet) Next() (sqltypes.Row, error) {
	for {
		row, err := s.inner.Next()
		if err != nil || s.keep(row) {
			return row, err
		}
	}
}

// NextBatch implements resource.ResultSet natively: the inner batch is
// filtered in place, and a batch that kept no row reads the next.
func (s *distinctSet) NextBatch(buf []sqltypes.Row) (int, error) {
	for {
		n, err := s.inner.NextBatch(buf)
		kept := 0
		for _, row := range buf[:n] {
			if s.keep(row) {
				buf[kept] = row
				kept++
			}
		}
		if kept > 0 || err != nil {
			return kept, err
		}
	}
}

func (s *distinctSet) Close() error { return s.inner.Close() }

// stripSet removes the trailing derived columns before rows reach the
// client.
type stripSet struct {
	inner   resource.ResultSet
	derived int
}

func (s *stripSet) Columns() []string {
	cols := s.inner.Columns()
	if len(cols) >= s.derived {
		return cols[:len(cols)-s.derived]
	}
	return cols
}

func (s *stripSet) Next() (sqltypes.Row, error) {
	row, err := s.inner.Next()
	if err != nil {
		return nil, err
	}
	if len(row) >= s.derived {
		return row[:len(row)-s.derived], nil
	}
	return row, nil
}

// NextBatch implements resource.ResultSet natively: the inner batch is
// filled first and the derived columns are sliced off in place — a
// header adjustment per row, no copying and no per-row interface calls.
func (s *stripSet) NextBatch(buf []sqltypes.Row) (int, error) {
	n, err := s.inner.NextBatch(buf)
	for i := 0; i < n; i++ {
		if len(buf[i]) >= s.derived {
			buf[i] = buf[i][:len(buf[i])-s.derived]
		}
	}
	return n, err
}

func (s *stripSet) Close() error { return s.inner.Close() }
