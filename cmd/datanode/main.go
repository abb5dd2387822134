// Command datanode runs one storage engine as a network server — the
// stand-in for a MySQL/PostgreSQL instance on a data server. Point the
// proxy or the embedded driver at its address to build the paper's
// multi-server topology on real sockets.
//
// Usage:
//
//	datanode -listen 127.0.0.1:7301 -name ds0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shardingsphere/internal/obs"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/storage"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7301", "address to listen on")
	name := flag.String("name", "ds0", "data source name")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address for pprof and /metrics (empty = off)")
	idleTO := flag.Duration("idle-timeout", 5*time.Minute, "per-connection frame read deadline (0 = none)")
	flag.Parse()

	engine := storage.NewEngine(*name)
	srv := proxy.NewServer(&proxy.NodeBackend{Processor: sqlexec.NewProcessor(engine)})
	srv.SetIdleTimeout(*idleTO)
	o := obs.NewServer()
	if *obsAddr != "" {
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
	fmt.Printf("datanode %s listening on %s\n", *name, addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, func() { fmt.Println("datanode: shutting down") })
	err = srv.ServeUntil(ctx)
	o.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
