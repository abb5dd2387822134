package main

// The layer walk: one client replays a fixed number of transactions and
// calls each layer's public function itself, in the order
// core.Session.ExecuteStmt does, with a span around every call. Spans
// live in this file, not in the product (choosing-metrics guide, 4): a
// later issue that moves spans into the program changes the product, not
// the benchmark.
//
// Two replays of the same seed run back to back on one client:
//   - untraced, through core.Session.Execute: the base of trace_overhead
//     and of core.residual_share (in the wire form every other transaction
//     goes through the front proxy instead, which gives the front wire's
//     cost by difference);
//   - the walk itself, each transaction followed by its units run again
//     below the kernel.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"shardingsphere/internal/exec"
	"shardingsphere/internal/merge"
	"shardingsphere/internal/plancache"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/transaction"
)

// walkPlan is what the kernel caches per statement shape, rebuilt here
// from the same public constructors core.buildPlan uses.
type walkPlan struct {
	stmt   sqlparser.Statement
	sel    *sqlparser.SelectStmt
	skel   *route.Skeleton
	tmpl   *rewrite.Template
	selCtx *rewrite.SelectContext
	table  string // logic table as written in the statement
	logic  string // the rule's key for route.Unit.TableMap
}

type walker struct {
	sys      *system
	txType   transaction.Type
	cache    *plancache.Cache
	rewriter *rewrite.Rewriter
	tx       transaction.Tx

	spans []span
	t0    time.Time
	txn   int
	root  int // the current transaction's root span

	// units are the current transaction's executed units, replayed below
	// the kernel once it has ended.
	units []rewrite.SQLUnit
	wrote bool
	procs map[string]unitConn // direct processor sessions
	pools map[string]unitConn // pooled (remote) connections, wire form

	walkCounts
}

// walkCounts are the walk's own exact counts.
type walkCounts struct {
	stmts, stmtUnits, rangeStmts, rangeUnits int
	selectUnits, rowsIn, rowsOut             int
	// kernelParses are parser runs between normalize and rewrite, the
	// kernel's own; allParses adds the data nodes' (the counter is
	// process-wide, and nodes parse unit SQL and XA verbs).
	kernelParses, allParses uint64
}

func (w *walker) begin(name string, parent int) int {
	w.spans = append(w.spans, span{Name: name, Txn: w.txn, Parent: parent, Start: int64(time.Since(w.t0))})
	return len(w.spans) - 1
}

func (w *walker) end(i int) { w.spans[i].End = int64(time.Since(w.t0)) }

func (w *walker) close() {}

// exec runs one statement the way core.Session.Execute does, layer by
// layer. It implements conn, so runTxn drives it like any connection.
func (w *walker) exec(sql string, args []sqltypes.Value) (rows []sqltypes.Row, affected int64, err error) {
	ctx := context.Background()
	k := w.sys.kernel
	s := w.begin("stmt", w.root)
	defer func() { w.end(s) }()
	switch sql {
	case sqlBegin:
		i := w.begin("transaction.Begin", s)
		w.tx, err = k.TxManager().Begin(w.txType)
		w.end(i)
		return nil, 0, err
	case sqlCommit, sqlRollback:
		tx := w.tx
		w.tx = nil
		i := w.begin("transaction.Commit", s)
		if sql == sqlCommit {
			err = tx.Commit(ctx)
		} else {
			err = tx.Rollback(ctx)
		}
		w.end(i)
		return nil, 0, err
	}

	parses0 := sqlparser.ParseCount()
	i := w.begin("sqlparser.Normalize", s)
	norm, ok := sqlparser.Normalize(sql)
	var bound []sqltypes.Value
	if ok {
		bound, err = norm.BindArgs(args)
	}
	w.end(i)
	if !ok || err != nil {
		return nil, 0, fmt.Errorf("walk: %q is not a cacheable shape: %v", sql, err)
	}
	var p *walkPlan
	if v, hit := w.cache.Get(norm.Key); hit {
		p = v.(*walkPlan)
	} else {
		if p, err = w.compile(norm.Key, s); err != nil {
			return nil, 0, err
		}
		w.cache.Put(norm.Key, p)
	}

	var rt *route.Result
	var rw *rewrite.Result
	if p.skel != nil {
		i = w.begin("route.SkeletonRoute", s)
		rt, err = p.skel.Route(bound, nil)
		w.end(i)
	} else {
		i = w.begin("route.Route", s)
		rt, err = k.Router().Route(p.stmt, bound, nil)
		w.end(i)
	}
	if err != nil {
		return nil, 0, err
	}
	if p.skel != nil && rt.SingleNode() {
		i = w.begin("rewrite.Render", s)
		unit := rt.Units[0]
		actual := unit.TableMap[p.logic]
		text, _ := p.tmpl.Render(w.dialect(unit.DataSource), actual)
		rw = &rewrite.Result{
			Units: []rewrite.SQLUnit{{DataSource: unit.DataSource, SQL: text, Args: bound,
				LogicTable: p.logic, ActualTable: actual}},
			Select: p.selCtx,
		}
		w.end(i)
	} else {
		i = w.begin("rewrite.Rewrite", s)
		rw, err = w.rewriter.Rewrite(p.stmt, rt, bound)
		w.end(i)
		if err != nil {
			return nil, 0, err
		}
	}
	w.kernelParses += sqlparser.ParseCount() - parses0
	w.stmts++
	w.stmtUnits += len(rw.Units)
	if strings.Contains(sql, "BETWEEN") {
		w.rangeStmts++
		w.rangeUnits += len(rw.Units)
	}
	w.units = append(w.units, rw.Units...)

	var held *exec.HeldConns
	if w.tx != nil {
		held = w.tx.Held()
		i = w.begin("transaction.BeforeStatement", s)
		err = w.tx.BeforeStatement(ctx, rw.Units)
		w.end(i)
		if err != nil {
			return nil, 0, err
		}
	}
	var execErr error
	if p.sel != nil {
		w.selectUnits += len(rw.Units)
		i = w.begin("exec.QueryCtx", s)
		qr, qerr := k.Executor().QueryCtx(ctx, rw.Units, held, nil, w.tx == nil)
		w.end(i)
		if execErr = qerr; qerr == nil {
			// Streaming cursors are pulled by the merger, so reading the
			// merged rows belongs to this span as it does in the kernel's
			// own merge stage plus the client's read.
			i = w.begin("merge.Merge", s)
			var rs resource.ResultSet
			if rs, execErr = merge.Merge(qr.Sets, rw.Select); execErr == nil {
				rows, execErr = resource.ReadAll(rs)
			}
			w.end(i)
			w.rowsOut += len(rows)
		}
	} else {
		w.wrote = true
		i = w.begin("exec.ExecuteUpdateCtx", s)
		var er resource.ExecResult
		er, execErr = k.Executor().ExecuteUpdateCtx(ctx, rw.Units, held, nil)
		w.end(i)
		affected = er.Affected
	}
	if w.tx != nil {
		i = w.begin("transaction.AfterStatement", s)
		err = w.tx.AfterStatement(ctx, rw.Units, execErr)
		w.end(i)
		if err != nil {
			return nil, 0, err
		}
	}
	return rows, affected, execErr
}

// compile builds a shape's plan as core.buildPlan does: parse once, then
// the route skeleton and rewrite template for shapes the fast path serves.
func (w *walker) compile(key string, parent int) (*walkPlan, error) {
	i := w.begin("sqlparser.Parse", parent)
	stmt, err := sqlparser.Parse(key)
	w.end(i)
	if err != nil {
		return nil, err
	}
	p := &walkPlan{stmt: stmt}
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		p.sel, p.table = t, t.From[0].Name
	case *sqlparser.UpdateStmt:
		p.table = t.Table
	case *sqlparser.DeleteStmt:
		p.table = t.Table
	default:
		return p, nil // INSERT: generic route + rewrite on the cached AST
	}
	i = w.begin("route.BuildSkeleton", parent)
	skel, ok := w.sys.kernel.Router().BuildSkeleton(stmt)
	w.end(i)
	if !ok {
		return p, nil
	}
	i = w.begin("rewrite.NewTemplate", parent)
	tmpl, ok := rewrite.NewTemplate(stmt, p.table)
	if ok && p.sel != nil {
		p.selCtx = rewrite.SingleNodeSelectContext(p.sel)
	}
	w.end(i)
	if rule, found := w.sys.kernel.Rules().Rule(p.table); ok && found {
		p.skel, p.tmpl, p.logic = skel, tmpl, rule.LogicTable
	}
	return p, nil
}

func (w *walker) dialect(ds string) sqlparser.Dialect { return w.sys.sources[ds].Dialect() }

// below replays the ended transaction's units under the kernel: on each
// data node's own query processor (storage.unit, the floor no kernel
// change can beat) and, in the wire form, through the remote data
// source's pooled connection (wire.backUnit; the difference is the back
// wire). A transaction that wrote is replayed inside BEGIN ... ROLLBACK.
func (w *walker) below() error {
	root := w.begin("below", -1)
	defer func() { w.end(root) }()
	for _, path := range []struct {
		name string
		set  map[string]unitConn
	}{{"storage.unit", w.procs}, {"wire.backUnit", w.pools}} {
		name, set := path.name, path.set
		touched := map[string]bool{}
		for _, u := range w.units {
			c, ok := set[u.DataSource]
			if !ok {
				continue
			}
			if w.wrote && !touched[u.DataSource] {
				touched[u.DataSource] = true
				if _, err := c.run(sqlBegin, nil); err != nil {
					return err
				}
			}
			i := w.begin(name, root)
			n, err := c.run(u.SQL, u.Args)
			w.end(i)
			if err != nil {
				return fmt.Errorf("%s %q: %w", name, u.SQL, err)
			}
			if name == "storage.unit" {
				w.rowsIn += n
			}
		}
		for ds := range touched {
			if _, err := set[ds].run(sqlRollback, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOne walks one transaction, then replays its units below the kernel.
func (w *walker) runOne(g *gen) error {
	ops := g.next()
	w.units, w.wrote = w.units[:0], false
	p0 := sqlparser.ParseCount()
	w.root = w.begin("txn", -1)
	err := runTxn(w, g, ops)
	w.end(w.root)
	w.allParses += sqlparser.ParseCount() - p0
	if err != nil {
		return err
	}
	return w.below()
}

// layerWalk runs the replays and the walk and returns the layer metrics.
func layerWalk(wl *workload, sys *system, g *gen, seed int64, n int, traceOut *[]span) (map[string]float64, error) {
	k := sys.kernel
	out := map[string]float64{}
	// The untraced replay. In the wire form it alternates between the
	// front proxy and a session on the same kernel; only the first half
	// of the transactions crosses the front wire, all of them the back.
	g.reseed(seed, 0)
	before := sys.wireCounters()
	replayConns := []conn{sessionConn{k.NewSession()}}
	if wl.wire {
		c, err := sys.newConn()
		if err != nil {
			return nil, err
		}
		replayConns = []conn{c, replayConns[0]}
	}
	txnNs, err := replay(g, n, replayConns...)
	for _, c := range replayConns {
		c.close()
	}
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	baseTxnNs := txnNs[len(txnNs)-1]
	if wl.wire {
		after := sys.wireCounters()
		out["wire.front_us"] = (median(txnNs[0]) - median(baseTxnNs)) / 1e3
		out["wire.bytes_per_txn"] = float64(after.frontBytes-before.frontBytes)/float64(len(txnNs[0])) +
			float64(after.backBytes-before.backBytes)/float64(n)
		out["wire.row_batches_per_txn"] = float64(after.frontBatches-before.frontBatches)/float64(len(txnNs[0])) +
			float64(after.backBatches-before.backBatches)/float64(n)
	}

	w := &walker{sys: sys, cache: plancache.New(0), procs: map[string]unitConn{}, pools: map[string]unitConn{}}
	w.rewriter = rewrite.New(w.dialect)
	if wl.xa {
		w.txType = transaction.XA
	}
	for name, proc := range sys.procs {
		c := procConn{proc.NewSession()}
		defer c.done()
		w.procs[name] = c
	}
	if wl.wire {
		for name, src := range sys.sources {
			pc, err := src.Acquire()
			if err != nil {
				return nil, err
			}
			c := pooledConn{pc}
			defer c.done()
			w.pools[name] = c
		}
	}
	// One unrecorded transaction compiles every shape a transaction has,
	// as the timed run's warm-up does for the kernel's own cache: after it
	// a cached workload parses exactly nothing and hits exactly always.
	g.reseed(seed, 0)
	g.stepBack()
	w.t0 = time.Now()
	if err := w.runOne(g); err != nil {
		return nil, err
	}
	w.spans, w.walkCounts = w.spans[:0], walkCounts{}
	cache0, exec0, tx0 := w.cache.Stats(), k.Executor().Metrics(), k.TxManager().Metrics()
	g.reseed(seed, 0)
	for w.txn = 0; w.txn < n; w.txn++ {
		if err := w.runOne(g); err != nil {
			return nil, err
		}
	}
	cache1, exec1, tx1 := w.cache.Stats(), k.Executor().Metrics(), k.TxManager().Metrics()
	if traceOut != nil {
		*traceOut = append(*traceOut, w.spans...)
	}

	// A layer's cost is its spans' self time summed per transaction, then
	// the median over the walk's transactions: the layers, the residual
	// and the untraced latency are all per transaction, so they add up.
	self := selfTimes(w.spans)
	perTxn := map[string][]int64{}
	kernelNs := make([]int64, n) // every layer call above the data sources
	walkNs := make([]int64, 0, n)
	for i, sp := range w.spans {
		switch sp.Name {
		case "txn":
			walkNs = append(walkNs, sp.End-sp.Start)
		case "stmt", "below":
		default:
			metric := spanMetric[sp.Name]
			if perTxn[metric] == nil {
				perTxn[metric] = make([]int64, n)
			}
			perTxn[metric][sp.Txn] += self[i]
			if w.spans[sp.Parent].Name == "stmt" {
				kernelNs[sp.Txn] += self[i]
			}
		}
	}
	for metric, ns := range perTxn {
		out[metric] = median(ns) / 1e3
	}
	if wl.wire {
		out["wire.back_us"] -= out["storage.unit_us"]
	}

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := func(after, before map[string]int64, key string) float64 { return float64(after[key] - before[key]) }
	c := w.walkCounts
	lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses)
	fanout := d(exec1, exec0, "query_fanout") + d(exec1, exec0, "update_fanout")
	commits := d(tx1, tx0, "fastpath_commits") + d(tx1, tx0, "xa_commits")
	out["sqlparser.parses_per_txn"] = float64(c.kernelParses) / float64(n)
	out["storage.node_parses_per_txn"] = float64(c.allParses-c.kernelParses) / float64(n)
	out["plancache.hit_ratio"] = ratio(float64(cache1.Hits-cache0.Hits), lookups)
	out["plancache.evictions_per_txn"] = float64(cache1.Evictions-cache0.Evictions) / float64(n)
	out["route.units_per_stmt"] = ratio(float64(c.stmtUnits), float64(c.stmts))
	out["exec.fanout_share"] = ratio(fanout, fanout+d(exec1, exec0, "query_inline")+d(exec1, exec0, "update_inline"))
	out["exec.retries"] = d(exec1, exec0, "retries")
	if c.rangeStmts > 0 {
		out["route.units_per_range_stmt"] = float64(c.rangeUnits) / float64(c.rangeStmts)
	}
	if c.selectUnits > 0 {
		out["exec.rows_per_unit"] = float64(c.rowsIn) / float64(c.selectUnits)
		out["merge.rows_in_per_row_out"] = ratio(float64(c.rowsIn), float64(c.rowsOut))
	}
	if commits > 0 {
		out["transaction.fastpath_share"] = d(tx1, tx0, "fastpath_commits") / commits
		out["transaction.log_writes_per_commit"] = d(tx1, tx0, "group_ops") / commits
	}
	out["core.residual_share"] = 1 - ratio(median(kernelNs), median(baseTxnNs))
	out["trace_overhead"] = ratio(median(baseTxnNs), median(walkNs))
	return out, nil
}

// spanMetric names the layer metric each span's self time counts toward.
var spanMetric = map[string]string{
	"sqlparser.Normalize":         "sqlparser.normalize_us",
	"sqlparser.Parse":             "sqlparser.parse_us",
	"route.Route":                 "route.route_us",
	"route.BuildSkeleton":         "route.route_us",
	"route.SkeletonRoute":         "route.route_us",
	"rewrite.Rewrite":             "rewrite.rewrite_us",
	"rewrite.NewTemplate":         "rewrite.rewrite_us",
	"rewrite.Render":              "rewrite.rewrite_us",
	"exec.QueryCtx":               "exec.query_us",
	"exec.ExecuteUpdateCtx":       "exec.update_us",
	"merge.Merge":                 "merge.merge_us",
	"transaction.Begin":           "transaction.begin_us",
	"transaction.BeforeStatement": "transaction.stmt_us",
	"transaction.AfterStatement":  "transaction.stmt_us",
	"transaction.Commit":          "transaction.commit_us",
	"storage.unit":                "storage.unit_us",
	"wire.backUnit":               "wire.back_us",
}
