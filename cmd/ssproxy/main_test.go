package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"

	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// TestMain runs the command itself when the test binary is re-run with
// SSPROXY_MAIN set, so a test can signal a real ssproxy process.
func TestMain(m *testing.M) {
	if os.Getenv("SSPROXY_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gatedBackend is a data node that holds every INSERT until release is
// closed, and reports on arrived that one is waiting.
type gatedBackend struct {
	proxy.NodeBackend
	arrived, release chan struct{}
}

func (b *gatedBackend) NewBackendSession() proxy.BackendSession {
	return gatedSession{b.NodeBackend.NewBackendSession(), b}
}

type gatedSession struct {
	proxy.BackendSession
	b *gatedBackend
}

func (s gatedSession) Execute(sql string, args []sqltypes.Value) ([]string, resource.ResultSet, int64, int64, error) {
	if strings.HasPrefix(sql, "INSERT") {
		s.b.arrived <- struct{}{}
		<-s.b.release
	}
	return s.BackendSession.Execute(sql, args)
}

// TestSIGTERMDrainsAndExitsZero: SIGTERM while a statement is in flight
// closes the server, the statement completes, and ssproxy exits 0.
func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	node := &gatedBackend{
		NodeBackend: proxy.NodeBackend{Processor: sqlexec.NewProcessor(storage.NewEngine("ds0"))},
		arrived:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	nodeSrv := proxy.NewServer(node)
	nodeAddr, err := nodeSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nodeSrv.Close()
	release := sync.OnceFunc(func() { close(node.release) })
	defer release()

	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-source", "ds0="+nodeAddr, "-health", "0")
	cmd.Env = append(os.Environ(), "SSPROXY_MAIN=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(out)
	addr := ""
	for addr == "" && lines.Scan() {
		if f := strings.Fields(lines.Text()); len(f) > 3 && f[1] == "listening" {
			addr = f[3]
		}
	}
	if addr == "" {
		t.Fatal("ssproxy printed no address")
	}

	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	inserted := make(chan error, 1)
	go func() {
		_, err := conn.Exec(context.Background(), "INSERT INTO t (id) VALUES (1)")
		inserted <- err
	}()
	<-node.arrived
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for lines.Scan() && lines.Text() != "ssproxy: shutting down" {
	}
	release()
	if err := <-inserted; err != nil {
		t.Errorf("the statement in flight at SIGTERM: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("ssproxy after SIGTERM: %v", err)
	}
}
