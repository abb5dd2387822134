package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/telemetry"
	"shardingsphere/pkg/client"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewServer()
	s.RegisterSnapshot("node", func() *telemetry.MetricsSnapshot {
		return &telemetry.MetricsSnapshot{
			Histograms: []telemetry.NamedHistogram{{Name: "node.read", Buckets: []uint64{0, 3, 1}}},
			Counters:   []telemetry.NamedCounter{{Name: "statements", Value: 4}, {Name: "in.use", Value: 2}},
		}
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	body := get(t, "http://"+addr+"/metrics")
	for _, want := range []string{
		"ss_node_in_use 2",
		"ss_node_statements 4",
		"ss_node_node_read_us_bucket{le=\"2\"} 3",
		"ss_node_node_read_us_bucket{le=\"4\"} 4",
		"ss_node_node_read_us_bucket{le=\"+Inf\"} 4",
		"ss_node_node_read_us_count 4",
		"ss_go_goroutines ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, body)
		}
	}
}

// TestNoDuplicateSeries renders a proxy server's one snapshot, as
// cmd/ssproxy registers it: the kernel's statement counter and the wire
// server's own are two series, ss_statements and ss_wire_statements, and
// no series name appears twice (duplicates are illegal in the
// exposition format).
func TestNoDuplicateSeries(t *testing.T) {
	k, err := core.New(core.Config{Sources: map[string]*resource.DataSource{
		"ds0": resource.NewEmbedded(storage.NewEngine("ds0"), nil),
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := proxy.NewServer(&proxy.KernelBackend{Kernel: k})
	paddr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	for _, sql := range []string{"CREATE TABLE t (id INT PRIMARY KEY)", "INSERT INTO t (id) VALUES (1)"} {
		if _, err := conn.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}

	s := NewServer()
	s.RegisterSnapshot("", srv.MetricsSnapshot)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := get(t, "http://"+addr+"/metrics")
	for _, want := range []string{"ss_statements 2", fmt.Sprintf("ss_wire_statements %d", srv.Metrics()["statements"]), "ss_wire_errors 0"} {
		if !strings.Contains(body, "\n"+want+"\n") {
			t.Fatalf("metrics page missing %q:\n%s", want, body)
		}
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if seen[f[2]] {
				t.Fatalf("series %s rendered twice:\n%s", f[2], body)
			}
			seen[f[2]] = true
		}
	}
}

func TestPprofIndex(t *testing.T) {
	s := NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := get(t, fmt.Sprintf("http://%s/debug/pprof/", addr))
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index looks wrong:\n%.200s", body)
	}
}

// TestCloseWaitsForTheServingGoroutine: once Close returns, the goroutine
// Start began is gone. The stacks are read right after Close, with no
// sleep and no poll; one P keeps a goroutine that Close only woke from
// running first.
func TestCloseWaitsForTheServingGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	count := func() int {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return strings.Count(string(buf), "created by shardingsphere/internal/obs.(*Server).Start")
	}
	before := count()
	s := NewServer()
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if n := count() - before; n != 0 {
		t.Fatalf("%d serving goroutines left after Close", n)
	}
}
