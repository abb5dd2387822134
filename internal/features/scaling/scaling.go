// Package scaling implements elastic resharding (paper Section IV-C,
// "Scaling"): a job copies a sharded logic table onto a new shard layout
// (more shards and/or more data sources), verifies row counts, and swaps
// the sharding rule atomically, after which the old actual tables can be
// dropped. The flow mirrors ShardingSphere-Scaling's
// copy → verify → switch pipeline.
package scaling

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqltypes"
)

// Status is a job's lifecycle state.
type Status uint8

// Job states.
const (
	StatusRunning Status = iota
	StatusVerifying
	StatusCompleted
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusVerifying:
		return "verifying"
	case StatusCompleted:
		return "completed"
	case StatusFailed:
		return "failed"
	default:
		return "running"
	}
}

// Job tracks one resharding run.
type Job struct {
	Table  string
	mu     sync.Mutex
	status Status
	moved  int64
	err    error
}

// Status returns the job state and rows moved so far.
func (j *Job) Status() (Status, int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.moved, j.err
}

func (j *Job) set(st Status, err error) {
	j.mu.Lock()
	j.status = st
	j.err = err
	j.mu.Unlock()
}

const copyBatch = 200

// ErrRuleChanged fails a job whose table's rule was replaced or dropped
// while its rows were copied: the switch would overwrite that change.
var ErrRuleChanged = errors.New("scaling: the table's rule changed during the copy")

// Reshard copies the logic table onto the new layout and swaps the rule.
// It runs synchronously and returns the finished job; generation names
// the new actual tables "<logic>_g<gen>_<i>" to avoid colliding with the
// current layout. A job that fails drops the tables it created.
func Reshard(k *core.Kernel, spec sharding.AutoTableSpec, generation int) (*Job, error) {
	oldRule, ok := k.Rules().Rule(spec.LogicTable)
	if !ok {
		return nil, fmt.Errorf("scaling: no rule for %s", spec.LogicTable)
	}
	newRule, err := sharding.BuildAutoRule(spec)
	if err != nil {
		return nil, err
	}
	// Generation-scoped actual table names.
	for i := range newRule.DataNodes {
		newRule.DataNodes[i].Table = fmt.Sprintf("%s_g%d_%d", spec.LogicTable, generation, i)
	}
	job := &Job{Table: spec.LogicTable}
	created, err := copyTable(k, job, oldRule, newRule)
	if err == nil {
		err = switchRule(k, oldRule, newRule)
	}
	if err != nil {
		dropTables(k, created)
		job.set(StatusFailed, err)
		return job, err
	}
	dropTables(k, oldRule.DataNodes)
	job.set(StatusCompleted, nil)
	return job, nil
}

// copyTable creates the new rule's tables from the old rule's schema,
// copies every row into them, routing by the new rule, and checks the
// count. It returns the tables it created.
func copyTable(k *core.Kernel, job *Job, oldRule, newRule *sharding.TableRule) ([]sharding.DataNode, error) {
	ddl, _, err := schemaDDL(k, oldRule)
	if err != nil {
		return nil, err
	}
	for i, node := range newRule.DataNodes {
		if err := execOn(k, node.DataSource, strings.Replace(ddl, "__TABLE__", node.Table, 1)); err != nil {
			return newRule.DataNodes[:i], err
		}
	}
	total, err := copyData(k, job, oldRule, newRule)
	if err != nil {
		return newRule.DataNodes, err
	}
	job.set(StatusVerifying, nil)
	gotTotal := int64(0)
	for _, node := range newRule.DataNodes {
		n, err := countOn(k, node.DataSource, node.Table)
		if err != nil {
			return newRule.DataNodes, err
		}
		gotTotal += n
	}
	if gotTotal != total {
		return newRule.DataNodes, fmt.Errorf("scaling: verification failed: copied %d, target holds %d", total, gotTotal)
	}
	return newRule.DataNodes, nil
}

// switchRule publishes newRule in place of oldRule: compare and publish.
// When the published snapshot no longer holds oldRule, it publishes
// nothing and returns ErrRuleChanged. Publishing also invalidates the
// plans that route to the old tables before they are dropped.
func switchRule(k *core.Kernel, oldRule, newRule *sharding.TableRule) error {
	return k.Publish(func(rs *sharding.RuleSet) error {
		if cur, _ := rs.Rule(oldRule.LogicTable); cur != oldRule {
			return fmt.Errorf("%w: %s", ErrRuleChanged, oldRule.LogicTable)
		}
		rs.AddRule(newRule)
		return nil
	})
}

// dropTables drops actual tables, ignoring tables already gone.
func dropTables(k *core.Kernel, nodes []sharding.DataNode) {
	for _, node := range nodes {
		execOn(k, node.DataSource, "DROP TABLE IF EXISTS "+node.Table)
	}
}

// schemaDDL derives a CREATE TABLE template (with __TABLE__ placeholder)
// from the first source node's schema.
func schemaDDL(k *core.Kernel, rule *sharding.TableRule) (string, []string, error) {
	first := rule.DataNodes[0]
	pk, cols, err := k.TableMeta(first.DataSource, first.Table)
	if err != nil {
		return "", nil, err
	}
	// Column types come from DESCRIBE.
	src, err := k.Executor().Source(first.DataSource)
	if err != nil {
		return "", nil, err
	}
	conn, err := src.Acquire()
	if err != nil {
		return "", nil, err
	}
	defer conn.Release()
	rs, err := conn.Query(context.Background(), "DESCRIBE "+first.Table)
	if err != nil {
		return "", nil, err
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		return "", nil, err
	}
	var defs []string
	for _, r := range rows {
		defs = append(defs, fmt.Sprintf("%s %s", r[0].AsString(), r[1].AsString()))
	}
	ddl := fmt.Sprintf("CREATE TABLE __TABLE__ (%s, PRIMARY KEY (%s))",
		strings.Join(defs, ", "), strings.Join(pk, ", "))
	_ = cols
	return ddl, pk, nil
}

func copyData(k *core.Kernel, job *Job, oldRule, newRule *sharding.TableRule) (int64, error) {
	shardCol := strings.ToLower(newRule.AutoStrategy.Column)
	total := int64(0)
	for _, node := range oldRule.DataNodes {
		src, err := k.Executor().Source(node.DataSource)
		if err != nil {
			return 0, err
		}
		conn, err := src.Acquire()
		if err != nil {
			return 0, err
		}
		rs, err := conn.Query(context.Background(), "SELECT * FROM "+node.Table)
		if err != nil {
			conn.Release()
			return 0, err
		}
		cols := rs.Columns()
		shardIdx := -1
		for i, c := range cols {
			if strings.ToLower(c) == shardCol {
				shardIdx = i
				break
			}
		}
		if shardIdx < 0 {
			rs.Close()
			conn.Release()
			return 0, fmt.Errorf("scaling: sharding column %s not in %s", shardCol, node.Table)
		}
		rows, err := resource.ReadAll(rs)
		conn.Release()
		if err != nil {
			return 0, err
		}
		// Group rows by target node, insert in batches.
		batches := map[string][]sqltypes.Row{}
		ix := newRule.NodeIndex()
		for _, row := range rows {
			nodes, err := ix.Route([]sharding.Condition{{Values: row[shardIdx : shardIdx+1]}}, nil)
			if err != nil {
				return 0, err
			}
			if len(nodes) != 1 {
				return 0, fmt.Errorf("scaling: row routes to %d nodes", len(nodes))
			}
			key := nodes[0].String()
			batches[key] = append(batches[key], row)
		}
		for key, batch := range batches {
			parts := strings.SplitN(key, ".", 2)
			for start := 0; start < len(batch); start += copyBatch {
				end := start + copyBatch
				if end > len(batch) {
					end = len(batch)
				}
				if err := insertBatch(k, parts[0], parts[1], cols, batch[start:end]); err != nil {
					return 0, err
				}
			}
			job.mu.Lock()
			job.moved += int64(len(batch))
			job.mu.Unlock()
			total += int64(len(batch))
		}
	}
	return total, nil
}

func insertBatch(k *core.Kernel, ds, table string, cols []string, rows []sqltypes.Row) error {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s (%s) VALUES ", table, strings.Join(cols, ", "))
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.SQLLiteral())
		}
		b.WriteString(")")
	}
	return execOn(k, ds, b.String())
}

func execOn(k *core.Kernel, ds, sql string) error {
	src, err := k.Executor().Source(ds)
	if err != nil {
		return err
	}
	conn, err := src.Acquire()
	if err != nil {
		return err
	}
	defer conn.Release()
	_, err = conn.Exec(context.Background(), sql)
	return err
}

func countOn(k *core.Kernel, ds, table string) (int64, error) {
	src, err := k.Executor().Source(ds)
	if err != nil {
		return 0, err
	}
	conn, err := src.Acquire()
	if err != nil {
		return 0, err
	}
	defer conn.Release()
	rs, err := conn.Query(context.Background(), "SELECT COUNT(*) FROM "+table)
	if err != nil {
		return 0, err
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		return 0, err
	}
	return rows[0][0].I, nil
}
