package distsql

import (
	"strings"
	"testing"
	"time"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/core"
	"shardingsphere/internal/sqltypes"
)

func admissionFixture(t *testing.T) (*core.Kernel, *core.Session, *admission.Controller) {
	t.Helper()
	k, s, _ := fixture(t)
	ctl := admission.NewController(admission.Config{MaxQueueWait: 40 * time.Millisecond, MaxConns: 64})
	k.SetAdmission(ctl)
	return k, s, ctl
}

func rowMap(rows []sqltypes.Row) map[string]string {
	m := map[string]string{}
	for _, r := range rows {
		m[r[0].S+"/"+r[1].S] = r[2].S
	}
	return m
}

func TestShowAdmissionStatus(t *testing.T) {
	_, s, ctl := admissionFixture(t)
	got := rowMap(rows(t, exec(t, s, "SHOW ADMISSION STATUS")))
	if got["controller/installed"] != "true" {
		t.Fatalf("installed: %v", got)
	}
	if got["config/max_queue_wait"] != "40ms" || got["config/max_connections"] != "64" {
		t.Fatalf("config rows: %v", got)
	}
	if got["gauge/running"] != "0" || got["gauge/draining"] != "false" {
		t.Fatalf("gauge rows: %v", got)
	}
	if _, ok := metrics(t, s)["admission.shed_total"]; !ok {
		t.Fatalf("admission counters missing from SHOW METRICS: %v", got)
	}

	// Admitted statements show up in the counters and the default tenant
	// row appears once traffic has flowed through the controller.
	rel, _, err := ctl.Acquire("default", 0)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	got = rowMap(rows(t, exec(t, s, "SHOW ADMISSION STATUS")))
	if n := metrics(t, s)["admission.admitted"]; n != 1 {
		t.Fatalf("admitted counter: %d", n)
	}
	if !strings.Contains(got["tenant/default"], "admitted=1") {
		t.Fatalf("tenant row: %v", got)
	}
}

func TestShowAdmissionNotInstalled(t *testing.T) {
	_, s, _ := fixture(t)
	got := rowMap(rows(t, exec(t, s, "SHOW ADMISSION STATUS")))
	if got["controller/installed"] != "false" {
		t.Fatalf("want not-installed row, got %v", got)
	}
}

func TestAdmissionQuotaVariable(t *testing.T) {
	_, s, ctl := admissionFixture(t)
	exec(t, s, "SET VARIABLE admission_quota = 'gold:3'")
	got := rowMap(rows(t, exec(t, s, "SHOW ADMISSION STATUS")))
	if !strings.Contains(got["tenant/gold"], "weight=3") {
		t.Fatalf("quota not applied: %v", got)
	}
	// Weight actually drives the fair queue (white-box: status reflects it).
	found := false
	for _, ten := range ctl.Status().Tenants {
		if ten.Name == "gold" && ten.Weight == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("controller did not record the gold quota")
	}
	// Malformed and invalid quotas are rejected.
	for _, bad := range []string{"'gold'", "'gold:0'", "'gold:x'"} {
		if _, err := s.Execute("SET VARIABLE admission_quota = " + bad); err == nil {
			t.Fatalf("quota %s accepted", bad)
		}
	}
}

func TestAdmissionQuotaWithoutController(t *testing.T) {
	_, s, _ := fixture(t)
	if _, err := s.Execute("SET VARIABLE admission_quota = 'gold:2'"); err == nil {
		t.Fatal("quota accepted with no controller installed")
	}
}

func TestFrontendFaultLifecycle(t *testing.T) {
	k, s, _ := admissionFixture(t)
	exec(t, s, "INJECT FAULT frontend (ACCEPT_DELAY_MS = 5, CONN_RESET = 0.5, CLIENT_STALL_MS = 10, SEED = 42)")
	fs, ok := k.Chaos().FrontendStatus()
	if !ok {
		t.Fatal("frontend fault not installed")
	}
	if fs.Fault.AcceptDelay != 5*time.Millisecond || fs.Fault.ConnResetRate != 0.5 || fs.Fault.ClientStall != 10*time.Millisecond {
		t.Fatalf("fault: %+v", fs.Fault)
	}

	// SHOW FAULTS lists the frontend row alongside backend faults.
	var seen bool
	for _, r := range rows(t, exec(t, s, "SHOW FAULTS")) {
		if r[0].S == "frontend" {
			seen = true
			if !strings.Contains(r[1].S, "accept_delay") {
				t.Fatalf("frontend describe: %q", r[1].S)
			}
		}
	}
	if !seen {
		t.Fatal("SHOW FAULTS missing frontend row")
	}

	// The injector's frontend hooks fire deterministically under the seed.
	if d := k.Chaos().FrontendAcceptDelay(); d != 5*time.Millisecond {
		t.Fatalf("accept delay: %v", d)
	}
	if d := k.Chaos().FrontendClientStall(); d != 10*time.Millisecond {
		t.Fatalf("client stall: %v", d)
	}

	exec(t, s, "REMOVE FAULT frontend")
	if _, ok := k.Chaos().FrontendStatus(); ok {
		t.Fatal("frontend fault survived REMOVE FAULT")
	}
	if d := k.Chaos().FrontendAcceptDelay(); d != 0 {
		t.Fatalf("accept delay after remove: %v", d)
	}

	// Unknown frontend properties are rejected.
	if _, err := s.Execute("INJECT FAULT frontend (HANG = true)"); err == nil {
		t.Fatal("backend-only property accepted on frontend")
	}
}

func TestAdmissionCountersInSQLMetrics(t *testing.T) {
	_, s, ctl := admissionFixture(t)
	rel, _, err := ctl.Acquire("default", 0)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if metrics(t, s)["admission.admitted"] != 1 {
		t.Fatal("admission counters missing from SHOW METRICS")
	}
}
