package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"

	"shardingsphere/pkg/client"
)

// TestMain runs the command itself when the test binary is re-run with
// DATANODE_MAIN set, so a test can signal a real datanode process.
func TestMain(m *testing.M) {
	if os.Getenv("DATANODE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMExitsZero: SIGTERM closes the server and datanode exits 0.
func TestSIGTERMExitsZero(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "DATANODE_MAIN=1")
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
		if f := strings.Fields(lines.Text()); len(f) > 4 && f[2] == "listening" {
			addr = f[4]
		}
	}
	if addr == "" {
		t.Fatal("datanode printed no address")
	}
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("datanode after SIGTERM: %v", err)
	}
}
