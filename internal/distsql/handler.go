package distsql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"shardingsphere/internal/chaos"
	"shardingsphere/internal/core"
	"shardingsphere/internal/digest"
	"shardingsphere/internal/features/scaling"
	"shardingsphere/internal/governor"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
	"shardingsphere/internal/transaction"
)

// Handler executes DistSQL against a kernel, persisting configuration
// through the Governor when one is attached.
type Handler struct {
	gov         *governor.Governor
	cancelWatch func()
}

// Install wires DistSQL processing into the kernel. gov may be nil (no
// persistence, status commands degrade gracefully). With a governor
// attached, every rule change the kernel publishes is persisted, the
// governor's counters join the kernel's metrics snapshot and a
// registry-pushed configuration change republishes this kernel's rules —
// so a rule change made on any instance drops stale plans on this one
// too, though this one keeps routing on its own rules.
func Install(k *core.Kernel, gov *governor.Governor) *Handler {
	h := &Handler{gov: gov}
	k.SetDistSQLHandler(h)
	if gov != nil {
		k.SetRulePersister(func(rs *sharding.RuleSet) { gov.PersistRules(rs) })
		k.RegisterMetrics("governor", gov.ResilienceMetrics)
		// Close the fault-tolerance loop: execution outcomes feed the
		// breakers, and breaker-driven health flips pull dead replicas out
		// of (or restore them into) read-write splitting rotation.
		gov.AttachExecOutcomes()
		for _, f := range k.Features() {
			if rh, ok := f.(interface{ OnSourceHealth(string, bool) }); ok {
				gov.Subscribe(rh.OnSourceHealth)
			}
		}
		h.cancelWatch = gov.WatchConfig(func() { k.Publish(nil) })
	}
	return h
}

// Close releases the handler's registry watch.
func (h *Handler) Close() {
	if h.cancelWatch != nil {
		h.cancelWatch()
	}
}

// changeRules publishes one rule mutation (Kernel.Publish).
func (h *Handler) changeRules(k *core.Kernel, change func(*sharding.RuleSet) error) (*core.Result, error) {
	if err := k.Publish(change); err != nil {
		return nil, err
	}
	return &core.Result{}, nil
}

func (h *Handler) createBinding(sess *core.Session, tables []string) (*core.Result, error) {
	return h.changeRules(sess.Kernel(), func(rs *sharding.RuleSet) error {
		return rs.AddBindingGroup(tables...)
	})
}

func (h *Handler) dropBinding(sess *core.Session, tables []string) (*core.Result, error) {
	return h.changeRules(sess.Kernel(), func(rs *sharding.RuleSet) error {
		dropBindingGroup(rs, tables)
		return nil
	})
}

func (h *Handler) createBroadcast(sess *core.Session, tables []string) (*core.Result, error) {
	return h.changeRules(sess.Kernel(), func(rs *sharding.RuleSet) error {
		for _, table := range tables {
			rs.Broadcast[strings.ToLower(table)] = true
		}
		return nil
	})
}

// removeFault is REMOVE FAULT <source>; "frontend" and "coordinator" are
// the reserved pseudo-sources INJECT FAULT accepts.
func (h *Handler) removeFault(sess *core.Session, source string) (*core.Result, error) {
	inj := sess.Kernel().Chaos()
	switch {
	case strings.EqualFold(source, "frontend"):
		if !inj.RemoveFrontend() {
			return nil, fmt.Errorf("distsql: no active frontend fault")
		}
	case strings.EqualFold(source, "coordinator"):
		if !inj.RemoveCoordinator() {
			return nil, fmt.Errorf("distsql: no active coordinator fault")
		}
	default:
		if !inj.Remove(source) {
			return nil, fmt.Errorf("distsql: no active fault on %s", source)
		}
	}
	return &core.Result{}, nil
}

// resetDigests is RESET DIGESTS: clears the statement digests (and, since
// they share the entries, the cached plans), the shard heat map and the
// hot-key sketch.
func (h *Handler) resetDigests(sess *core.Session) (*core.Result, error) {
	k := sess.Kernel()
	k.PlanCache().Reset()
	k.Workload().Reset()
	return &core.Result{}, nil
}

// injectFault installs a chaos fault on one data source (RAL, chaos
// engineering): INJECT FAULT ds (ERROR_RATE=0.5, LATENCY_MS=10,
// HANG=true, BREAK_AFTER=100, SEED=42).
func (h *Handler) injectFault(sess *core.Session, t faultSpec) (*core.Result, error) {
	k := sess.Kernel()
	// "frontend" is a reserved pseudo-source: the fault perturbs the
	// proxy's client-facing side (accept path and session loops) instead
	// of a backend connection. INJECT FAULT frontend (ACCEPT_DELAY_MS=10,
	// CONN_RESET=0.2, CLIENT_STALL_MS=50, SEED=42).
	if strings.EqualFold(t.source, "frontend") {
		return h.injectFrontendFault(k, t)
	}
	// "coordinator" kills the 2PC coordinator at a protocol point:
	// INJECT FAULT coordinator (CRASH_POINT=after_log_write).
	if strings.EqualFold(t.source, "coordinator") {
		return h.injectCoordinatorFault(k, t)
	}
	src, err := k.Executor().Source(t.source)
	if err != nil {
		return nil, err
	}
	var f chaos.Fault
	for key, val := range t.props {
		val = strings.TrimSpace(val)
		switch key {
		case "error_rate":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("distsql: ERROR_RATE wants a number in [0,1], got %q", val)
			}
			f.ErrorRate = rate
		case "latency_ms":
			ms, err := strconv.ParseInt(val, 10, 64)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("distsql: LATENCY_MS wants a non-negative integer, got %q", val)
			}
			f.Latency = time.Duration(ms) * time.Millisecond
		case "hang":
			f.Hang = strings.EqualFold(val, "true") || val == "1"
		case "break_after":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("distsql: BREAK_AFTER wants a non-negative integer, got %q", val)
			}
			f.BreakAfter = n
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("distsql: SEED wants an integer, got %q", val)
			}
			f.Seed = n
		default:
			return nil, fmt.Errorf("distsql: unknown fault property %q (want ERROR_RATE, LATENCY_MS, HANG, BREAK_AFTER or SEED)", key)
		}
	}
	k.Chaos().Apply(src, f)
	return &core.Result{}, nil
}

// injectFrontendFault parses and installs the frontend (accept-path)
// fault.
func (h *Handler) injectFrontendFault(k *core.Kernel, t faultSpec) (*core.Result, error) {
	var f chaos.FrontendFault
	for key, val := range t.props {
		val = strings.TrimSpace(val)
		switch key {
		case "accept_delay_ms":
			ms, err := strconv.ParseInt(val, 10, 64)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("distsql: ACCEPT_DELAY_MS wants a non-negative integer, got %q", val)
			}
			f.AcceptDelay = time.Duration(ms) * time.Millisecond
		case "conn_reset":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("distsql: CONN_RESET wants a number in [0,1], got %q", val)
			}
			f.ConnResetRate = rate
		case "client_stall_ms":
			ms, err := strconv.ParseInt(val, 10, 64)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("distsql: CLIENT_STALL_MS wants a non-negative integer, got %q", val)
			}
			f.ClientStall = time.Duration(ms) * time.Millisecond
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("distsql: SEED wants an integer, got %q", val)
			}
			f.Seed = n
		default:
			return nil, fmt.Errorf("distsql: unknown frontend fault property %q (want ACCEPT_DELAY_MS, CONN_RESET, CLIENT_STALL_MS or SEED)", key)
		}
	}
	k.Chaos().ApplyFrontend(f)
	return &core.Result{}, nil
}

// injectCoordinatorFault parses and installs the 2PC coordinator crash
// fault.
func (h *Handler) injectCoordinatorFault(k *core.Kernel, t faultSpec) (*core.Result, error) {
	var f chaos.CoordinatorFault
	for key, val := range t.props {
		val = strings.TrimSpace(val)
		switch key {
		case "crash_point":
			point := strings.ToLower(val)
			if point != transaction.CrashAfterPrepare && point != transaction.CrashAfterLogWrite {
				return nil, fmt.Errorf("distsql: CRASH_POINT wants %q or %q, got %q",
					transaction.CrashAfterPrepare, transaction.CrashAfterLogWrite, val)
			}
			f.CrashPoint = point
		default:
			return nil, fmt.Errorf("distsql: unknown coordinator fault property %q (want CRASH_POINT)", key)
		}
	}
	if f.CrashPoint == "" {
		return nil, fmt.Errorf("distsql: coordinator fault needs CRASH_POINT")
	}
	k.Chaos().ApplyCoordinator(f)
	return &core.Result{}, nil
}

// showFaults lists the active faults with their live counters.
func (h *Handler) showFaults(sess *core.Session) (*core.Result, error) {
	k := sess.Kernel()
	var rows []sqltypes.Row
	for _, s := range k.Chaos().Statuses() {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(s.Source),
			sqltypes.NewString(s.Describe()),
			sqltypes.NewInt(s.Calls),
			sqltypes.NewInt(s.Injected),
		})
	}
	if fs, ok := k.Chaos().FrontendStatus(); ok {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString("frontend"),
			sqltypes.NewString(fs.Fault.Describe()),
			sqltypes.NewInt(fs.Conns),
			sqltypes.NewInt(fs.Injected),
		})
	}
	if cs, ok := k.Chaos().CoordinatorStatus(); ok {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString("coordinator"),
			sqltypes.NewString(cs.Fault.Describe()),
			sqltypes.NewInt(cs.Checks),
			sqltypes.NewInt(cs.Injected),
		})
	}
	return rowsResult([]string{"source", "fault", "calls", "injected"}, rows), nil
}

// metricColumns are the columns of SHOW METRICS and SHOW CLUSTER METRICS.
// A histogram row carries count and quantiles, a counter row its value.
var metricColumns = []string{"node", "kind", "metric", "count", "p50_us", "p99_us", "value"}

// metricRows appends one node's snapshot to rows in metricColumns' shape.
func metricRows(rows []sqltypes.Row, node string, snap *telemetry.MetricsSnapshot) []sqltypes.Row {
	for _, hist := range snap.Histograms {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(node),
			sqltypes.NewString("histogram"),
			sqltypes.NewString(hist.Name),
			sqltypes.NewInt(int64(hist.Count())),
			sqltypes.NewInt(usOf(hist.Quantile(0.50))),
			sqltypes.NewInt(usOf(hist.Quantile(0.99))),
			sqltypes.NewInt(0),
		})
	}
	for _, c := range snap.Counters {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(node),
			sqltypes.NewString("counter"),
			sqltypes.NewString(c.Name),
			sqltypes.NewInt(0), sqltypes.NewInt(0), sqltypes.NewInt(0),
			sqltypes.NewInt(c.Value),
		})
	}
	return rows
}

// showMetrics renders this process's one metrics snapshot
// (Kernel.Metrics) as node "local" (RAL's SHOW METRICS).
func (h *Handler) showMetrics(sess *core.Session) (*core.Result, error) {
	return rowsResult(metricColumns, metricRows(nil, "local", sess.Kernel().Metrics())), nil
}

// showClusterMetrics pulls every remote node's metrics snapshot over the
// wire (FrameMetricsPull) and renders per-node rows, sorted by source,
// followed by their bucket-wise merge (node = "cluster"). Because the
// merge adds buckets, a merged histogram's count always equals the sum
// of its node counts. Embedded sources have no node to pull, and a failed
// pull is skipped: a dead node must not take the cluster view down.
func (h *Handler) showClusterMetrics(sess *core.Session) (*core.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	e := sess.Kernel().Executor()
	names := e.Sources()
	sort.Strings(names)
	var rows []sqltypes.Row
	var snaps []*telemetry.MetricsSnapshot
	for _, n := range names {
		src, err := e.Source(n)
		if err != nil {
			continue
		}
		snap, err := src.MetricsPull(ctx)
		if err != nil || snap == nil {
			continue
		}
		rows = metricRows(rows, n, snap)
		snaps = append(snaps, snap)
	}
	return rowsResult(metricColumns, metricRows(rows, "cluster", telemetry.MergeSnapshots(snaps))), nil
}

func (h *Handler) createRule(sess *core.Session, spec sharding.AutoTableSpec) (*core.Result, error) {
	return h.putRule(sess.Kernel(), spec, false)
}

func (h *Handler) alterRule(sess *core.Session, spec sharding.AutoTableSpec) (*core.Result, error) {
	return h.putRule(sess.Kernel(), spec, true)
}

// putRule implements the AutoTable strategy (paper Section V-A): the
// user names the resources and the shard count; the platform computes the
// data distribution and binds logic to actual tables. Physical tables
// materialize when the logic CREATE TABLE arrives (the DDL broadcast
// creates every shard).
func (h *Handler) putRule(k *core.Kernel, spec sharding.AutoTableSpec, alter bool) (*core.Result, error) {
	for _, r := range spec.Resources {
		if _, err := k.Executor().Source(r); err != nil {
			return nil, err
		}
	}
	rule, err := sharding.BuildAutoRule(spec)
	if err != nil {
		return nil, err
	}
	return h.changeRules(k, func(rs *sharding.RuleSet) error {
		if !alter && rs.IsSharded(spec.LogicTable) {
			return fmt.Errorf("distsql: rule for %s exists; use ALTER SHARDING TABLE RULE", spec.LogicTable)
		}
		rs.AddRule(rule)
		return nil
	})
}

func (h *Handler) dropRule(sess *core.Session, table string) (*core.Result, error) {
	return h.changeRules(sess.Kernel(), func(rs *sharding.RuleSet) error {
		if !rs.RemoveRule(table) {
			return fmt.Errorf("distsql: no sharding rule for %s", table)
		}
		if h.gov != nil {
			h.gov.DropRule(table)
		}
		return nil
	})
}

func dropBindingGroup(rs *sharding.RuleSet, tables []string) {
	match := func(group []string) bool {
		if len(group) != len(tables) {
			return false
		}
		for _, t := range tables {
			found := false
			for _, g := range group {
				if strings.EqualFold(g, t) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	// A new slice: the set may be a clone sharing its array with the
	// published snapshot.
	rs.BindingGroups = slices.DeleteFunc(slices.Clone(rs.BindingGroups), match)
}

func rowsResult(cols []string, rows []sqltypes.Row) *core.Result {
	return &core.Result{RS: resource.NewSliceResultSet(cols, rows)}
}

func (h *Handler) showBindingRules(sess *core.Session) (*core.Result, error) {
	var rows []sqltypes.Row
	for _, group := range sess.Kernel().Rules().BindingGroups {
		rows = append(rows, sqltypes.Row{sqltypes.NewString(strings.Join(group, ", "))})
	}
	return rowsResult([]string{"binding_tables"}, rows), nil
}

func (h *Handler) showBroadcastRules(sess *core.Session) (*core.Result, error) {
	var names []string
	for t := range sess.Kernel().Rules().Broadcast {
		names = append(names, t)
	}
	sort.Strings(names)
	var rows []sqltypes.Row
	for _, n := range names {
		rows = append(rows, sqltypes.Row{sqltypes.NewString(n)})
	}
	return rowsResult([]string{"broadcast_table"}, rows), nil
}

func (h *Handler) showShardingRules(sess *core.Session) (*core.Result, error) {
	return h.showShardingRule(sess, "")
}

// showShardingRule lists the sharding rule of one logic table, or of every
// table when the name is empty.
func (h *Handler) showShardingRule(sess *core.Session, table string) (*core.Result, error) {
	k := sess.Kernel()
	cols := []string{"table", "sharding_column", "type", "sharding_count", "data_nodes"}
	names := k.Rules().LogicTables()
	sort.Strings(names)
	var rows []sqltypes.Row
	for _, name := range names {
		if table != "" && !strings.EqualFold(table, name) {
			continue
		}
		rule, _ := k.Rules().Rule(name)
		col, typ := "", ""
		if rule.AutoSpec != nil {
			col = rule.AutoSpec.ShardingColumn
			typ = rule.AutoSpec.AlgorithmType
		} else if rule.AutoStrategy != nil {
			col = rule.AutoStrategy.Column
		}
		nodes := make([]string, len(rule.DataNodes))
		for i, n := range rule.DataNodes {
			nodes[i] = n.String()
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(rule.LogicTable),
			sqltypes.NewString(col),
			sqltypes.NewString(typ),
			sqltypes.NewInt(int64(len(rule.DataNodes))),
			sqltypes.NewString(strings.Join(nodes, ", ")),
		})
	}
	return rowsResult(cols, rows), nil
}

func (h *Handler) showResources(sess *core.Session) (*core.Result, error) {
	k := sess.Kernel()
	names := k.Executor().Sources()
	sort.Strings(names)
	var rows []sqltypes.Row
	for _, n := range names {
		src, err := k.Executor().Source(n)
		if err != nil {
			continue
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(n),
			sqltypes.NewString(src.Dialect().String()),
			sqltypes.NewInt(int64(src.PoolSize())),
		})
	}
	return rowsResult([]string{"resource", "dialect", "pool_size"}, rows), nil
}

func (h *Handler) showStatus(sess *core.Session) (*core.Result, error) {
	k := sess.Kernel()
	var rows []sqltypes.Row
	if h.gov != nil {
		for _, id := range h.gov.Instances() {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewString("instance"), sqltypes.NewString(id), sqltypes.NewString("alive"),
			})
		}
	}
	names := k.Executor().Sources()
	sort.Strings(names)
	for _, n := range names {
		status := "unknown"
		if h.gov != nil {
			status = h.gov.SourceStatus(n)
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString("datasource"), sqltypes.NewString(n), sqltypes.NewString(status),
		})
	}
	// Circuit breakers ride along as kind=breaker rows.
	if h.gov != nil {
		states := h.gov.BreakerStates()
		for _, n := range names {
			if st, ok := states[n]; ok {
				rows = append(rows, sqltypes.Row{
					sqltypes.NewString("breaker"), sqltypes.NewString(n), sqltypes.NewString(st.String()),
				})
			}
		}
	}
	// Connection-pool gauges ride along as kind=pool rows so SHOW STATUS
	// stays a single three-column surface.
	for _, n := range names {
		src, err := k.Executor().Source(n)
		if err != nil {
			continue
		}
		st := src.Stats()
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString("pool"), sqltypes.NewString(n),
			sqltypes.NewString(fmt.Sprintf(
				"in_use=%d idle=%d waiters=%d acquires=%d wait_total=%s timeouts=%d discarded=%d",
				st.InUse, st.Idle, st.Waiters, st.Acquires, st.WaitTotal, st.Timeouts, st.Discarded)),
		})
	}
	return rowsResult([]string{"kind", "name", "status"}, rows), nil
}

// preview returns one row per SQL unit executing the statement would send
// (RAL's PREVIEW).
func (h *Handler) preview(sess *core.Session, sql string) (*core.Result, error) {
	units, err := sess.Preview(sql)
	if err != nil {
		return nil, err
	}
	var rows []sqltypes.Row
	for _, u := range units {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(u.DataSource),
			sqltypes.NewString(u.SQL),
			sqltypes.NewString(fmt.Sprint(u.Args)),
		})
	}
	return rowsResult([]string{"data_source", "actual_sql", "args"}, rows), nil
}

// trace executes the statement with a detailed trace and returns the span
// breakdown instead of the statement's rows (RAL's TRACE).
func (h *Handler) trace(sess *core.Session, sql string) (*core.Result, error) {
	res, tr, err := sess.ExecuteTraced(sql)
	if tr != nil {
		defer tr.Release()
	}
	if err != nil {
		return nil, err
	}
	if res != nil && res.RS != nil {
		// Drain the statement's own rows; TRACE returns the spans instead.
		if _, derr := resource.ReadAll(res.RS); derr != nil {
			return nil, derr
		}
	}
	cols := []string{"stage", "data_source", "offset_us", "duration_us", "error", "attempt", "sql"}
	var rows []sqltypes.Row
	for _, sp := range tr.Spans() {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(sp.Stage.String()),
			sqltypes.NewString(sp.DataSource),
			sqltypes.NewInt(usOf(sp.Offset)),
			sqltypes.NewInt(usOf(sp.Dur)),
			sqltypes.NewString(sp.Err),
			sqltypes.NewInt(int64(sp.Attempt)),
			sqltypes.NewString(""),
		})
	}
	// The total row echoes the traced statement through the collector's
	// capture policy: redacted by default, raw only when slow_query_raw_sql
	// is on — TRACE output carries no user literals unless asked.
	rows = append(rows, sqltypes.Row{
		sqltypes.NewString("total"), sqltypes.NewString(""),
		sqltypes.NewInt(0), sqltypes.NewInt(usOf(tr.Total())), sqltypes.NewString(""),
		sqltypes.NewInt(0),
		sqltypes.NewString(sess.Kernel().Telemetry().Redact(sql)),
	})
	return rowsResult(cols, rows), nil
}

// showSlowQueries returns the slow-query ring, most recent first, with a
// compact per-span breakdown (RAL's SHOW SLOW QUERIES).
func (h *Handler) showSlowQueries(sess *core.Session) (*core.Result, error) {
	k := sess.Kernel()
	tel := k.Telemetry()
	cols := []string{"sql", "total_us", "at", "spans", "digest"}
	var rows []sqltypes.Row
	for _, e := range tel.Slow() {
		parts := make([]string, 0, len(e.Spans))
		for _, sp := range e.Spans {
			name := sp.Stage.String()
			if sp.DataSource != "" {
				name += "@" + sp.DataSource
			}
			parts = append(parts, fmt.Sprintf("%s=%dus", name, usOf(sp.Dur)))
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(e.SQL),
			sqltypes.NewInt(usOf(e.Total)),
			sqltypes.NewString(e.At.Format(time.RFC3339Nano)),
			sqltypes.NewString(strings.Join(parts, " ")),
			sqltypes.NewString(e.Digest),
		})
	}
	return rowsResult(cols, rows), nil
}

// showDigests renders the statement digests (RAL's SHOW STATEMENT
// DIGESTS), ranked by accumulated wall time or call count. Shapes the
// plan cache evicted follow as one last "(evicted)" row.
func (h *Handler) showDigests(sess *core.Session, orderBy string) (*core.Result, error) {
	snaps, evicted := sess.Kernel().PlanCache().Digests()
	if orderBy == "calls" {
		sort.Slice(snaps, func(i, j int) bool {
			if snaps[i].Calls != snaps[j].Calls {
				return snaps[i].Calls > snaps[j].Calls
			}
			return snaps[i].Key < snaps[j].Key
		})
	} else {
		sort.Slice(snaps, func(i, j int) bool {
			if snaps[i].Total != snaps[j].Total {
				return snaps[i].Total > snaps[j].Total
			}
			return snaps[i].Key < snaps[j].Key
		})
	}
	if evicted.Calls > 0 {
		snaps = append(snaps, evicted)
	}
	cols := []string{"digest", "sql", "calls", "errors", "retries", "rows", "bytes",
		"total_us", "avg_us", "p50_us", "p99_us", "single_shard", "cross_shard", "avg_shards", "max_shards"}
	rows := make([]sqltypes.Row, 0, len(snaps))
	for _, s := range snaps {
		avg := int64(0)
		avgShards := "0.00"
		if s.Calls > 0 {
			avg = usOf(s.Total) / s.Calls
			avgShards = fmt.Sprintf("%.2f", float64(s.ShardsSum)/float64(s.Calls))
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(s.ID),
			sqltypes.NewString(s.Key),
			sqltypes.NewInt(s.Calls),
			sqltypes.NewInt(s.Errors),
			sqltypes.NewInt(s.Retries),
			sqltypes.NewInt(s.Rows),
			sqltypes.NewInt(s.Bytes),
			sqltypes.NewInt(usOf(s.Total)),
			sqltypes.NewInt(avg),
			sqltypes.NewInt(usOf(s.P50)),
			sqltypes.NewInt(usOf(s.P99)),
			sqltypes.NewInt(s.SingleShard),
			sqltypes.NewInt(s.CrossShard),
			sqltypes.NewString(avgShards),
			sqltypes.NewInt(s.ShardsMax),
		})
	}
	return rowsResult(cols, rows), nil
}

// showShardHeat renders the (table, shard) heat map ranked by decayed
// rate, so the currently-hot shards come first even after a traffic
// shift (RAL's SHOW SHARD HEAT).
func (h *Handler) showShardHeat(sess *core.Session) (*core.Result, error) {
	k := sess.Kernel()
	snaps := k.Workload().Heat.Snapshot(digest.Now())
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].Rate != snaps[j].Rate {
			return snaps[i].Rate > snaps[j].Rate
		}
		if ti, tj := snaps[i].Queries+snaps[i].Execs, snaps[j].Queries+snaps[j].Execs; ti != tj {
			return ti > tj
		}
		if snaps[i].DataSource != snaps[j].DataSource {
			return snaps[i].DataSource < snaps[j].DataSource
		}
		return snaps[i].ActualTable < snaps[j].ActualTable
	})
	cols := []string{"table", "data_source", "actual_table", "rate_per_s",
		"queries", "execs", "rows_read", "rows_written", "bytes", "errors", "p50_us", "p99_us"}
	rows := make([]sqltypes.Row, 0, len(snaps))
	for _, s := range snaps {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(s.LogicTable),
			sqltypes.NewString(s.DataSource),
			sqltypes.NewString(s.ActualTable),
			sqltypes.NewString(fmt.Sprintf("%.2f", s.Rate)),
			sqltypes.NewInt(s.Queries),
			sqltypes.NewInt(s.Execs),
			sqltypes.NewInt(s.RowsRead),
			sqltypes.NewInt(s.RowsWritten),
			sqltypes.NewInt(s.Bytes),
			sqltypes.NewInt(s.Errors),
			sqltypes.NewInt(usOf(s.P50)),
			sqltypes.NewInt(usOf(s.P99)),
		})
	}
	return rowsResult(cols, rows), nil
}

// showHotKeys renders the space-saving sketch's top sharding-key values
// (RAL's SHOW HOT KEYS).
func (h *Handler) showHotKeys(sess *core.Session) (*core.Result, error) {
	k := sess.Kernel()
	tk := k.Workload().HotKeys()
	if tk == nil {
		return nil, fmt.Errorf("distsql: hot-key tracking is off; SET VARIABLE hotkey_tracking = true")
	}
	cols := []string{"table", "column", "value", "count", "max_error"}
	var rows []sqltypes.Row
	for _, r := range tk.Top(0) {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(r.Table),
			sqltypes.NewString(r.Column),
			sqltypes.NewString(r.Value),
			sqltypes.NewInt(r.Count),
			sqltypes.NewInt(r.MaxError),
		})
	}
	return rowsResult(cols, rows), nil
}

func usOf(d time.Duration) int64 { return int64(d / time.Microsecond) }

// showAdmission renders the frontend admission controller's live state
// (RAL's SHOW ADMISSION STATUS): config, gauges and per-tenant
// fair-queueing rows on one three-column surface. Its counters are
// SHOW METRICS' admission.* rows.
func (h *Handler) showAdmission(sess *core.Session) (*core.Result, error) {
	k := sess.Kernel()
	cols := []string{"scope", "name", "value"}
	c := k.Admission()
	if c == nil {
		return rowsResult(cols, []sqltypes.Row{{
			sqltypes.NewString("controller"), sqltypes.NewString("installed"), sqltypes.NewString("false"),
		}}), nil
	}
	st := c.Status()
	var rows []sqltypes.Row
	row := func(scope, name, value string) {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(scope), sqltypes.NewString(name), sqltypes.NewString(value),
		})
	}
	row("controller", "installed", "true")
	row("config", "max_concurrent", strconv.Itoa(st.Cfg.MaxConcurrent))
	row("config", "queue_depth", strconv.Itoa(st.Cfg.QueueDepth))
	row("config", "max_queue_wait", st.Cfg.MaxQueueWait.String())
	row("config", "codel_target", st.Cfg.Target.String())
	row("config", "codel_interval", st.Cfg.Interval.String())
	row("config", "max_connections", strconv.Itoa(st.Cfg.MaxConns))
	row("gauge", "running", strconv.Itoa(st.Running))
	row("gauge", "queued", strconv.Itoa(st.Queued))
	row("gauge", "connections", strconv.FormatInt(st.Conns, 10))
	row("gauge", "connections_peak", strconv.FormatInt(st.ConnsPeak, 10))
	row("gauge", "overloaded", strconv.FormatBool(st.Overloaded))
	row("gauge", "draining", strconv.FormatBool(st.Draining))
	row("gauge", "service_estimate", st.SvcEstimate.String())
	row("gauge", "queue_wait_p50", st.QueueWaitP50.String())
	row("gauge", "queue_wait_p99", st.QueueWaitP99.String())
	for _, t := range st.Tenants {
		row("tenant", t.Name, fmt.Sprintf("weight=%g queued=%d admitted=%d shed=%d",
			t.Weight, t.Queued, t.Admitted, t.Shed))
	}
	return rowsResult(cols, rows), nil
}

// reshard runs an online scaling job (paper Section IV-C): copy the logic
// table onto the new layout, verify row counts, switch the rule. The
// generation counter lives in the registry so table names never collide
// across runs.
func (h *Handler) reshard(sess *core.Session, spec sharding.AutoTableSpec) (*core.Result, error) {
	k := sess.Kernel()
	gen := 1
	if h.gov != nil || k.Registry() != nil {
		reg := k.Registry()
		key := "/scaling/generation/" + strings.ToLower(spec.LogicTable)
		if raw, _, err := reg.Get(key); err == nil {
			fmt.Sscanf(raw, "%d", &gen)
			gen++
		}
		reg.Put(key, fmt.Sprintf("%d", gen))
	}
	job, err := scaling.Reshard(k, spec, gen)
	if err != nil {
		return nil, err
	}
	st, moved, jerr := job.Status()
	if jerr != nil {
		return nil, jerr
	}
	return rowsResult([]string{"table", "status", "rows_moved"}, []sqltypes.Row{{
		sqltypes.NewString(spec.LogicTable),
		sqltypes.NewString(st.String()),
		sqltypes.NewInt(moved),
	}}), nil
}
