// Command ssproxy runs ShardingSphere-Proxy (paper Section VII-A): a
// standalone server that fronts a fleet of data nodes and speaks the wire
// protocol to any client. Data sources are either embedded in-process
// engines (-embedded, the zero-setup mode) or remote datanode servers
// (-source name=addr, repeatable). Sharding rules are configured at
// runtime through DistSQL.
//
// Usage:
//
//	ssproxy -listen 127.0.0.1:7300 -embedded ds0,ds1
//	ssproxy -listen 127.0.0.1:7300 -source ds0=127.0.0.1:7301 -source ds1=127.0.0.1:7302
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/core"
	"shardingsphere/internal/distsql"
	"shardingsphere/internal/governor"
	"shardingsphere/internal/obs"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
	"time"
)

type sourceFlags []string

func (s *sourceFlags) String() string     { return strings.Join(*s, ",") }
func (s *sourceFlags) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	listen := flag.String("listen", "127.0.0.1:7300", "address to listen on")
	embedded := flag.String("embedded", "", "comma-separated embedded data source names")
	maxCon := flag.Int("maxcon", 4, "max connections per data source per query")
	rate := flag.Float64("rate", 0, "statement rate limit per second (0 = unlimited)")
	health := flag.Duration("health", 5*time.Second, "health check interval (0 = off)")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address for pprof and /metrics (empty = off)")
	maxConns := flag.Int("max-connections", 0, "max concurrent client connections (0 = unlimited)")
	admQueue := flag.Int("admission-queue", 0, "admission queue depth (0 = default 8x concurrency)")
	admConc := flag.Int("admission-concurrency", 0, "max statements executing at once (0 = default 4x GOMAXPROCS)")
	admWait := flag.Duration("admission-max-wait", 100*time.Millisecond, "max predicted queue wait before shedding")
	idleTO := flag.Duration("idle-timeout", 5*time.Minute, "per-connection frame read deadline (0 = none)")
	drainTO := flag.Duration("drain-timeout", 5*time.Second, "grace period to drain in-flight statements on shutdown")
	var remotes sourceFlags
	flag.Var(&remotes, "source", "remote data source as name=host:port (repeatable)")
	flag.Parse()

	sources := map[string]*resource.DataSource{}
	if *embedded != "" {
		for _, name := range strings.Split(*embedded, ",") {
			name = strings.TrimSpace(name)
			sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
		}
	}
	for _, spec := range remotes {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			fmt.Fprintf(os.Stderr, "bad -source %q (want name=host:port)\n", spec)
			os.Exit(2)
		}
		sources[parts[0]] = client.NewRemoteDataSource(parts[0], parts[1], nil)
	}
	if len(sources) == 0 {
		fmt.Fprintln(os.Stderr, "no data sources: use -embedded or -source")
		os.Exit(2)
	}

	reg := registry.New()
	kernel, err := core.New(core.Config{Sources: sources, MaxCon: *maxCon, Registry: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gov := governor.New(reg, kernel.Executor())
	distsql.Install(kernel, gov)
	sess := reg.NewSession()
	gov.RegisterInstance(sess, "proxy-"+*listen, "proxy")
	if *health > 0 {
		gov.StartHealthCheck(*health)
		kernel.AddGate(gov)
	}

	srv := proxy.NewServer(&proxy.KernelBackend{Kernel: kernel})
	ctl := admission.NewController(admission.Config{
		MaxConcurrent: *admConc,
		QueueDepth:    *admQueue,
		MaxQueueWait:  *admWait,
		MaxConns:      *maxConns,
	})
	ctl.SetGate(gov)
	srv.SetAdmission(ctl)
	kernel.SetAdmission(ctl)
	srv.SetChaosFrontend(kernel.Chaos())
	srv.SetIdleTimeout(*idleTO)
	srv.SetDrainTimeout(*drainTO)
	if *rate > 0 {
		srv.SetLimiter(governor.NewRateLimiter(*rate, int(*rate)))
	}
	if *obsAddr != "" {
		o := obs.NewServer()
		o.RegisterSnapshot("", srv.MetricsSnapshot)
		bound, err := o.Start(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("observability endpoint on http://%s (/metrics, /debug/pprof/)\n", bound)
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("ssproxy listening on %s (%d data sources)\n", addr, len(sources))
	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
