// Package shardingdb is the embedded driver adaptor — the Go analogue of
// ShardingSphere-JDBC (paper Section VII-A). Applications link the entire
// kernel into their process and talk to the sharded fleet through this
// package as if it were one database: plain SQL and DistSQL go through
// Session.Exec/Query, transactions through BEGIN/COMMIT/ROLLBACK or the
// Tx helpers, and a database/sql driver adapter makes it usable anywhere
// database/sql is.
package shardingdb

import (
	"context"
	"fmt"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/distsql"
	"shardingsphere/internal/governor"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
	"shardingsphere/pkg/client"
)

// Re-exported value constructors so applications don't import internal
// packages.
var (
	Int    = sqltypesNewInt
	Float  = sqltypesNewFloat
	String = sqltypesNewString
	Bool   = sqltypesNewBool
)

// DataSourceConfig declares one data source. Leave Addr empty for an
// embedded in-memory engine (the default substrate; see DESIGN.md);
// set Addr to attach a networked data node (cmd/datanode).
type DataSourceConfig struct {
	Name string
	// Addr, when set, dials a remote data node at host:port.
	Addr string
	// Dialect is "mysql" (default) or "postgresql".
	Dialect string
	// PoolSize bounds the connection pool (default 64).
	PoolSize int
}

// Config assembles a DB.
type Config struct {
	DataSources []DataSourceConfig
	// Rules may carry programmatically built sharding rules; DistSQL can
	// add more at runtime.
	Rules *sharding.RuleSet
	// MaxCon is the per-query connection budget per data source.
	MaxCon int
	// Features are pluggable kernel features (readwrite.Feature,
	// encrypt.Feature, shadow.Feature, ...).
	Features []core.Feature
	// DefaultTransactionType is LOCAL unless overridden.
	DefaultTransactionType string
	// Registry shares a coordination store between instances (e.g. one
	// proxy and one embedded driver, as the paper suggests deploying).
	Registry *registry.Registry
	// HealthCheckInterval starts the governor's health-check loop when > 0.
	// 0 only leaves the loop off: a source's breaker still opens on failed
	// statements and gates every statement either way.
	HealthCheckInterval time.Duration
}

// DB is an embedded sharding runtime.
type DB struct {
	kernel  *core.Kernel
	distsql *distsql.Handler // holds the registry's configuration watch
	regSess *registry.Session
	sources map[string]*resource.DataSource
	engines []*storage.Engine
}

// Open builds the runtime.
func Open(cfg Config) (*DB, error) {
	if len(cfg.DataSources) == 0 {
		return nil, fmt.Errorf("shardingdb: at least one data source is required")
	}
	sources := map[string]*resource.DataSource{}
	db := &DB{sources: sources}
	for _, dsc := range cfg.DataSources {
		dialect := sqlparser.DialectMySQL
		if dsc.Dialect == "postgresql" {
			dialect = sqlparser.DialectPostgreSQL
		}
		opts := &resource.Options{PoolSize: dsc.PoolSize, Dialect: dialect}
		if dsc.Addr != "" {
			sources[dsc.Name] = client.NewRemoteDataSource(dsc.Name, dsc.Addr, opts)
			continue
		}
		engine := storage.NewEngine(dsc.Name)
		db.engines = append(db.engines, engine)
		sources[dsc.Name] = resource.NewEmbedded(engine, opts)
	}
	txType := transaction.Local
	if cfg.DefaultTransactionType != "" {
		var err error
		txType, err = transaction.ParseType(cfg.DefaultTransactionType)
		if err != nil {
			return nil, err
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = registry.New()
	}
	kernel, err := core.New(core.Config{
		Rules:         cfg.Rules,
		Sources:       sources,
		MaxCon:        cfg.MaxCon,
		Registry:      reg,
		Features:      cfg.Features,
		DefaultTxType: txType,
	})
	if err != nil {
		return nil, err
	}
	db.kernel = kernel
	db.distsql = distsql.Install(kernel)
	db.regSess = reg.NewSession()
	kernel.Governor().RegisterInstance(db.regSess, fmt.Sprintf("jdbc-%p", db))
	if cfg.HealthCheckInterval > 0 {
		kernel.Governor().StartHealthCheck(cfg.HealthCheckInterval)
	}
	return db, nil
}

// Kernel exposes the kernel for advanced embedding (scaling jobs, the
// governor).
func (db *DB) Kernel() *core.Kernel { return db.kernel }

// Governor exposes the kernel's governor.
func (db *DB) Governor() *governor.Governor { return db.kernel.Governor() }

// Session opens a client session. Sessions are single-goroutine, like
// connections; open one per worker.
func (db *DB) Session() *Session {
	return &Session{inner: db.kernel.NewSession()}
}

// Close shuts the runtime down: the DB stops watching the registry, so it
// adopts no later configuration.
func (db *DB) Close() {
	db.distsql.Close()
	db.kernel.Governor().Stop()
	if db.regSess != nil {
		db.regSess.Close()
	}
	for _, ds := range db.sources {
		ds.Close()
	}
	for _, e := range db.engines {
		e.Close()
	}
}

// Recover completes in-doubt XA transactions from the transaction log
// (run it after restarting a crashed coordinator).
func (db *DB) Recover() (int, error) {
	return db.kernel.TxManager().Recover(context.Background())
}
