// Package obs is the opt-in profiling and metrics endpoint (paper
// Section VI, observability): one stdlib HTTP server per process
// exposing net/http/pprof under /debug/pprof/ and a Prometheus
// text-format /metrics page rendered from registered metrics snapshots.
// Both ssproxy and datanode wire it behind -obs-addr, each registering
// its server's one snapshot; with the flag unset nothing listens and the
// hot path pays nothing.
package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"shardingsphere/internal/telemetry"
)

// SnapshotSource yields a metrics snapshot (histograms and counters) at
// scrape time.
type SnapshotSource func() *telemetry.MetricsSnapshot

// Server is the observability HTTP endpoint.
type Server struct {
	mu   sync.Mutex
	srcs map[string]SnapshotSource
	srv  *http.Server
	// served is closed when the serving goroutine returns.
	served chan struct{}
}

// NewServer builds an endpoint with the process's Go runtime gauges
// pre-registered under the "go" component, so every binary that mounts
// the endpoint exports them without extra wiring.
func NewServer() *Server {
	s := &Server{srcs: map[string]SnapshotSource{}}
	s.RegisterSnapshot("go", RuntimeGauges)
	return s
}

// RuntimeGauges reports process health at scrape time: goroutine count,
// heap bytes, GC pause p99 over the runtime's recent-pause ring, and
// the open file-descriptor count (sockets dominate it on a proxy).
func RuntimeGauges() *telemetry.MetricsSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &telemetry.MetricsSnapshot{Counters: []telemetry.NamedCounter{
		{Name: "fds", Value: openFDs()},
		{Name: "gc_cycles", Value: int64(ms.NumGC)},
		{Name: "gc_pause_p99_us", Value: gcPauseP99(&ms)},
		{Name: "goroutines", Value: int64(runtime.NumGoroutine())},
		{Name: "heap_bytes", Value: int64(ms.HeapAlloc)},
		{Name: "heap_objects", Value: int64(ms.HeapObjects)},
	}}
}

// gcPauseP99 computes the 99th-percentile stop-the-world pause from
// MemStats' circular ring of recent pauses (order is irrelevant for a
// quantile), in microseconds.
func gcPauseP99(ms *runtime.MemStats) int64 {
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]uint64, n)
	copy(pauses, ms.PauseNs[:n])
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	idx := n * 99 / 100
	if idx >= n {
		idx = n - 1
	}
	return int64(pauses[idx] / 1000)
}

// openFDs counts the process's open file descriptors via /proc; on
// platforms without procfs it reports -1 rather than guessing.
func openFDs() int64 {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return int64(len(ents))
}

// RegisterSnapshot attaches a named snapshot source: its counters render
// as ss_<name>_<counter>, its histograms as ss_<name>_<histogram>_us
// buckets. An empty name drops the component segment. Re-registering a
// name replaces the source.
func (s *Server) RegisterSnapshot(name string, src SnapshotSource) {
	s.mu.Lock()
	s.srcs[name] = src
	s.mu.Unlock()
}

// Start listens on addr and serves pprof and /metrics in the
// background, returning the bound address (addr may use port 0).
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	s.srv = &http.Server{Handler: mux}
	s.served = make(chan struct{})
	srv, served := s.srv, s.served
	s.mu.Unlock()
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close stops the endpoint and waits for its serving goroutine.
func (s *Server) Close() error {
	s.mu.Lock()
	srv, served := s.srv, s.served
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Close()
	<-served
	return err
}

// metrics renders every registered source in Prometheus text format.
// Counters render as untyped series, histograms as cumulative
// le-bucketed series in microseconds.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	srcs := make(map[string]SnapshotSource, len(s.srcs))
	for n, src := range s.srcs {
		srcs[n] = src
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for _, name := range sortedKeys(srcs) {
		snap := srcs[name]()
		if snap == nil {
			continue
		}
		for _, c := range snap.Counters {
			series := seriesName(name, c.Name)
			fmt.Fprintf(&b, "# TYPE %s untyped\n%s %d\n", series, series, c.Value)
		}
		for _, h := range snap.Histograms {
			base := seriesName(name, h.Name) + "_us"
			fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
			var cum uint64
			for i, c := range h.Buckets {
				cum += c
				if c == 0 {
					continue
				}
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", base, uint64(1)<<uint(i), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n%s_count %d\n", base, h.Count(), base, h.Count())
		}
	}
	w.Write([]byte(b.String()))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// seriesName builds a legal Prometheus metric name: the fixed ss_
// prefix, the component segment, and the key with every character
// outside [a-zA-Z0-9_] replaced by '_'.
func seriesName(component, key string) string {
	name := "ss"
	if component != "" {
		name += "_" + component
	}
	name += "_" + key
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
