// Package sharding implements the paper's data sharding model (Section
// IV-A): sharding keys, sharding algorithms, logic/actual tables, data
// nodes, binding tables and the AutoTable strategy. Algorithms register in
// an SPI-style registry — the Go analogue of ShardingSphere loading
// ShardingAlgorithm implementations through Java SPI — so user code can
// plug in custom algorithms without touching the kernel.
package sharding

import (
	"errors"
	"fmt"
	"sync"

	"shardingsphere/internal/sqltypes"
)

// Errors returned by the sharding layer.
var (
	ErrUnknownAlgorithm = errors.New("sharding: unknown algorithm")
	ErrBadProperty      = errors.New("sharding: bad algorithm property")
	ErrNoTarget         = errors.New("sharding: value maps to no target")
)

// Algorithm assigns sharding values to targets. Targets are the ordered
// candidate names (actual table names, or data source names). Precise
// handles `=` and `IN` values; DoRange handles `BETWEEN`/comparison ranges
// with nil meaning an open bound.
type Algorithm interface {
	// Init configures the algorithm from its properties.
	Init(props map[string]string) error
	// Precise returns the single target for one sharding value.
	Precise(targets []string, v sqltypes.Value) (string, error)
	// DoRange returns every target that may hold values in [lo, hi].
	DoRange(targets []string, lo, hi *sqltypes.Value) ([]string, error)
}

// Factory builds an algorithm instance.
type Factory func() Algorithm

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
)

// Register adds an algorithm factory under a (case-insensitive) type name.
// Registering an existing name replaces it, which lets tests and user code
// override presets.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	factories[normalize(name)] = f
}

// New instantiates and initializes a registered algorithm.
func New(name string, props map[string]string) (Algorithm, error) {
	regMu.RLock()
	f, ok := factories[normalize(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAlgorithm, name)
	}
	a := f()
	if err := a.Init(props); err != nil {
		return nil, err
	}
	return a, nil
}

func normalize(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
