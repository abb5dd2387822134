package bench

import (
	"fmt"
	"time"

	"shardingsphere/internal/baseline"
	"shardingsphere/internal/core"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
)

// System is one configuration under test: a client factory plus teardown.
type System struct {
	Name      string
	NewClient func(worker int) (Client, error)
	Close     func()
	// Kernel is exposed for experiments that tweak runtime state.
	Kernel *core.Kernel
}

// Topology sizes a sharded deployment.
type Topology struct {
	// Sources is the number of data sources ("data servers" in the
	// paper's scalability experiment).
	Sources int
	// TablesPerSource is the intra-source table split (the paper uses 10).
	TablesPerSource int
	// MaxCon is the per-query connection budget.
	MaxCon int
	// Latency simulates the network round trip to each data source.
	Latency time.Duration
	// TxType is the distributed transaction type for new sessions.
	TxType transaction.Type
	// Binding adds the sharded tables to one binding group.
	Binding bool
	// Tables lists the logic tables to shard (default: sbtest).
	Tables []string
	// ShardingColumn defaults to "id".
	ShardingColumn string
	// CustomRules overrides the generated sbtest-style rules entirely
	// (the TPCC experiment supplies its own rule set).
	CustomRules *sharding.RuleSet
	// TxLog passes through to core.Config: the transaction benchmark
	// injects a sync-cost-modeling XA log.
	TxLog transaction.LogStore
}

// WithRules returns a copy of the topology using the given rule set.
func (t Topology) WithRules(rs *sharding.RuleSet) Topology {
	t.CustomRules = rs
	return t
}

func (t Topology) withDefaults() Topology {
	if t.Sources <= 0 {
		t.Sources = 1
	}
	if t.TablesPerSource <= 0 {
		t.TablesPerSource = 10
	}
	if t.MaxCon <= 0 {
		t.MaxCon = 1
	}
	if len(t.Tables) == 0 {
		t.Tables = []string{"sbtest"}
	}
	if t.ShardingColumn == "" {
		t.ShardingColumn = "id"
	}
	return t
}

func (t Topology) sourceNames() []string {
	names := make([]string, t.Sources)
	for i := range names {
		names[i] = fmt.Sprintf("ds%d", i)
	}
	return names
}

func (t Topology) buildSources() map[string]*resource.DataSource {
	out := map[string]*resource.DataSource{}
	for _, name := range t.sourceNames() {
		out[name] = resource.NewEmbedded(storage.NewEngine(name), &resource.Options{
			PoolSize: 512,
			Latency:  t.Latency,
		})
	}
	return out
}

func (t Topology) buildRules() (*sharding.RuleSet, error) {
	if t.CustomRules != nil {
		return t.CustomRules, nil
	}
	rs := sharding.NewRuleSet()
	for _, table := range t.Tables {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable:     table,
			Resources:      t.sourceNames(),
			ShardingColumn: t.ShardingColumn,
			AlgorithmType:  "MOD",
			ShardingCount:  t.Sources * t.TablesPerSource,
		})
		if err != nil {
			return nil, err
		}
		rs.AddRule(rule)
	}
	if t.Binding && len(t.Tables) >= 2 {
		if err := rs.AddBindingGroup(t.Tables...); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// NewSSJ builds the embedded-driver system ("ShardingSphere-JDBC").
func NewSSJ(top Topology) (*System, error) {
	top = top.withDefaults()
	rules, err := top.buildRules()
	if err != nil {
		return nil, err
	}
	k, err := core.New(core.Config{
		Rules:         rules,
		Sources:       top.buildSources(),
		MaxCon:        top.MaxCon,
		DefaultTxType: top.TxType,
		TxLog:         top.TxLog,
	})
	if err != nil {
		return nil, err
	}
	return &System{
		Name:      "SSJ",
		Kernel:    k,
		NewClient: func(int) (Client, error) { return NewKernelClient(k), nil },
		Close:     func() {},
	}, nil
}

// NewSSP wraps a kernel with a TCP proxy ("ShardingSphere-Proxy"):
// clients pay the real network hop the paper measures.
func NewSSP(top Topology) (*System, error) {
	ssj, err := NewSSJ(top)
	if err != nil {
		return nil, err
	}
	srv := proxy.NewServer(&proxy.KernelBackend{Kernel: ssj.Kernel})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &System{
		Name:   "SSP",
		Kernel: ssj.Kernel,
		NewClient: func(int) (Client, error) {
			return DialRemote(addr)
		},
		Close: srv.Close,
	}, nil
}

// NewNaive builds the broadcast middleware baseline.
func NewNaive(top Topology) (*System, error) {
	top = top.withDefaults()
	rules, err := top.buildRules()
	if err != nil {
		return nil, err
	}
	k, err := baseline.NaiveKernel(rules, top.buildSources())
	if err != nil {
		return nil, err
	}
	return &System{
		Name:      "Naive",
		Kernel:    k,
		NewClient: func(int) (Client, error) { return NewKernelClient(k), nil },
		Close:     func() {},
	}, nil
}

// NewSingle builds the single-instance baseline ("MS"/"PG"): one engine,
// unsharded tables.
func NewSingle(name string, latency time.Duration) (*System, error) {
	engine := storage.NewEngine("single")
	sources := map[string]*resource.DataSource{
		"single": resource.NewEmbedded(engine, &resource.Options{
			PoolSize: 512,
			Dialect:  sqlparser.DialectMySQL,
			Latency:  latency,
		}),
	}
	k, err := core.New(core.Config{Sources: sources})
	if err != nil {
		return nil, err
	}
	return &System{
		Name:      name,
		Kernel:    k,
		NewClient: func(int) (Client, error) { return NewKernelClient(k), nil },
		Close:     func() {},
	}, nil
}

// PrepareOn loads a workload through one client of the system.
func PrepareOn(sys *System, load func(Client) error) error {
	c, err := sys.NewClient(0)
	if err != nil {
		return err
	}
	defer c.Close()
	return load(c)
}
