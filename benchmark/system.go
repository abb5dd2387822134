package main

// The systems under test, assembled from the product's public
// constructors only: an embedded kernel over in-process engines, or the
// deployed form (client -> proxy -> kernel -> wire v2 -> data nodes) on
// loopback listeners in this same process.

import (
	"context"
	"fmt"
	"strings"

	"shardingsphere/internal/core"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
	"shardingsphere/pkg/client"
)

type system struct {
	kernel  *core.Kernel
	sources map[string]*resource.DataSource
	// procs are query processors over the same engines the data sources
	// use: the substrate floor runs unit SQL on them directly.
	procs map[string]*sqlexec.Processor
	// Wire form only.
	front     *proxy.Server
	frontAddr string
	nodes     []*proxy.Server
}

// buildSystem builds the workload's system and loads the table: the work
// setup_s times.
func buildSystem(wl *workload, d *dataset) (*system, error) {
	s := &system{sources: map[string]*resource.DataSource{}, procs: map[string]*sqlexec.Processor{}}
	names := make([]string, wl.sources)
	for i := range names {
		name := fmt.Sprintf("ds%d", i)
		names[i] = name
		engine := storage.NewEngine(name)
		s.procs[name] = sqlexec.NewProcessor(engine)
		if !wl.wire {
			s.sources[name] = resource.NewEmbedded(engine, nil)
			continue
		}
		node := proxy.NewServer(&proxy.NodeBackend{Processor: s.procs[name]})
		addr, err := node.Start("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, node)
		s.sources[name] = client.NewRemoteDataSource(name, addr, nil)
	}
	rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable:     "sbtest",
		Resources:      names,
		ShardingColumn: "id",
		AlgorithmType:  "MOD",
		ShardingCount:  wl.sources * wl.tablesPerSource,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	rules := sharding.NewRuleSet()
	rules.AddRule(rule)
	txType := transaction.Local
	if wl.xa {
		txType = transaction.XA
	}
	s.kernel, err = core.New(core.Config{Rules: rules, Sources: s.sources, DefaultTxType: txType})
	if err != nil {
		s.close()
		return nil, err
	}
	if wl.wire {
		s.front = proxy.NewServer(&proxy.KernelBackend{Kernel: s.kernel})
		if s.frontAddr, err = s.front.Start("127.0.0.1:0"); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.load(d); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// load creates, indexes and fills sbtest through the kernel, 500 rows a
// statement as sysbench's prepare does.
func (s *system) load(d *dataset) error {
	sess := s.kernel.NewSession()
	defer sess.Close()
	for _, ddl := range []string{sqlCreate, sqlIndex} {
		if _, err := sess.Exec(ddl); err != nil {
			return err
		}
	}
	const batch = 500
	var b strings.Builder
	for start := 1; start <= d.rows; start += batch {
		b.Reset()
		b.WriteString("INSERT INTO sbtest (id, k, c, pad) VALUES ")
		for id := int64(start); id < int64(start+batch) && id <= int64(d.rows); id++ {
			if id > int64(start) {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, '%s', '%s')", id, d.k(id, 0), d.cString(id, 0), d.padString(id, 0))
		}
		if _, err := sess.Exec(b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (s *system) close() {
	if s.front != nil {
		s.front.Close()
	}
	for _, ds := range s.sources {
		ds.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

// conn is one application thread's connection to the system.
type conn interface {
	// exec runs one statement and returns its rows or affected count.
	exec(sql string, args []sqltypes.Value) ([]sqltypes.Row, int64, error)
	close()
}

// newConn opens the workload's kind of connection: a kernel session, or
// a pkg/client connection to the front proxy.
func (s *system) newConn() (conn, error) {
	if s.front == nil {
		return sessionConn{s.kernel.NewSession()}, nil
	}
	c, err := client.Dial(s.frontAddr)
	if err != nil {
		return nil, err
	}
	return wireConn{c}, nil
}

type sessionConn struct{ sess *core.Session }

func (c sessionConn) exec(sql string, args []sqltypes.Value) ([]sqltypes.Row, int64, error) {
	res, err := c.sess.Execute(sql, args...)
	if err != nil {
		return nil, 0, err
	}
	if !res.IsQuery() {
		return nil, res.Affected, nil
	}
	rows, err := resource.ReadAll(res.RS)
	return rows, 0, err
}

func (c sessionConn) close() { c.sess.Close() }

type wireConn struct{ c *client.Conn }

func (c wireConn) exec(sql string, args []sqltypes.Value) ([]sqltypes.Row, int64, error) {
	res, err := c.c.Do(sql, args...)
	if err != nil {
		return nil, 0, err
	}
	if res.Rows == nil {
		return nil, res.Exec.Affected, nil
	}
	rows, err := resource.ReadAll(res.Rows)
	return rows, 0, err
}

func (c wireConn) close() { c.c.Close() }

// finalCheck verifies the table after a run: the row count is unchanged
// and SUM(k) is the loaded sum plus what the clients' committed
// transactions changed.
func (s *system) finalCheck(d *dataset, gens []*gen) error {
	c := sessionConn{s.kernel.NewSession()}
	defer c.close()
	rows, _, err := c.exec("SELECT COUNT(*), SUM(k) FROM sbtest", nil)
	if err != nil {
		return err
	}
	want := d.ksum[d.rows]
	for _, g := range gens {
		want += g.kdelta
	}
	if n, sum := rows[0][0].AsInt(), rows[0][1].AsInt(); n != int64(d.rows) || sum != want {
		return fmt.Errorf("final check: COUNT(*)=%d SUM(k)=%d, want %d and %d", n, sum, d.rows, want)
	}
	return nil
}

// unitConn runs unit SQL below the kernel, for the layer walk: directly
// on a data node's query processor (the substrate floor) or through a
// pooled connection of the data source (which, for a remote source,
// adds the back wire).
type unitConn interface {
	run(sql string, args []sqltypes.Value) (rows int, err error)
	done()
}

type procConn struct{ sess *sqlexec.Session }

func (c procConn) run(sql string, args []sqltypes.Value) (int, error) {
	res, err := c.sess.Execute(sql, args...)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

func (c procConn) done() { c.sess.Close() }

type pooledConn struct{ pc *resource.PooledConn }

func (c pooledConn) run(sql string, args []sqltypes.Value) (int, error) {
	if !strings.HasPrefix(sql, "SELECT") {
		_, err := c.pc.Exec(context.Background(), sql, args...)
		return 0, err
	}
	rs, err := c.pc.Query(context.Background(), sql, args...)
	if err != nil {
		return 0, err
	}
	rows, err := resource.ReadAll(rs)
	return len(rows), err
}

func (c pooledConn) done() { c.pc.Release() }

// wireCounters are the public wire counters of the front proxy and,
// summed, of the data nodes; zero for an embedded system.
type wireCounters struct{ frontBytes, frontBatches, backBytes, backBatches int64 }

func (s *system) wireCounters() wireCounters {
	var c wireCounters
	if s.front != nil {
		m := s.front.Metrics()
		c.frontBytes, c.frontBatches = m["bytes_in"]+m["bytes_out"], m["row_batches"]
	}
	for _, n := range s.nodes {
		m := n.Metrics()
		c.backBytes += m["bytes_in"] + m["bytes_out"]
		c.backBatches += m["row_batches"]
	}
	return c
}
