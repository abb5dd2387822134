package distsql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// ErrWriteOnly is SHOW VARIABLE's answer for a variable that is a command
// rather than a setting: it has no value to read back.
var ErrWriteOnly = errors.New("distsql: variable is write-only")

// variable is one name SET VARIABLE and SHOW VARIABLE know.
type variable struct {
	name string
	set  func(h *Handler, sess *core.Session, name, value string) error
	get  func(sess *core.Session) string // live value; nil for write-only
}

// variables is the second table: every name SET VARIABLE validates. A name
// not listed here is a plain session variable, stored and shown as text.
// To add a variable, add a row.
var variables = []variable{
	// Session scope: validated and applied by the kernel, exactly as the
	// plain SET name = value statement.
	{"transaction_type", setSessionVar, func(s *core.Session) string {
		return s.TransactionType().String()
	}},
	{"statement_timeout_ms", setSessionVar, func(s *core.Session) string {
		return strconv.FormatInt(s.StatementTimeout().Milliseconds(), 10)
	}},

	// Kernel scope.
	{"slow_query_threshold_ms", intVar(0, func(k *core.Kernel, n int64) {
		k.Telemetry().SetSlowThreshold(time.Duration(n) * time.Millisecond)
	}), func(s *core.Session) string {
		return strconv.FormatInt(s.Kernel().Telemetry().SlowThreshold().Milliseconds(), 10)
	}},
	{"slow_query_log_size", intVar(1, func(k *core.Kernel, n int64) {
		k.Telemetry().SetSlowLogCapacity(int(n))
	}), func(s *core.Session) string {
		return strconv.Itoa(s.Kernel().Telemetry().SlowLogCapacity())
	}},
	{"slow_query_raw_sql", boolVar(func(k *core.Kernel, on bool) {
		k.Telemetry().SetRawSlowSQL(on)
	}), func(s *core.Session) string {
		return strconv.FormatBool(s.Kernel().Telemetry().RawSlowSQL())
	}},
	{"stage_sampling", intVar(1, func(k *core.Kernel, n int64) {
		k.Telemetry().SetStageSampling(int(n))
	}), func(s *core.Session) string {
		return strconv.Itoa(s.Kernel().Telemetry().StageSampling())
	}},
	{"hotkey_tracking", boolVar((*core.Kernel).SetHotKeyTracking), func(s *core.Session) string {
		return strconv.FormatBool(s.Kernel().Workload().HotKeys() != nil)
	}},

	// Commands spelt as assignments.
	{"circuit_break", setCircuitBreak, nil},
	{"admission_quota", setAdmissionQuota, nil},
}

func findVariable(name string) *variable {
	for i := range variables {
		if variables[i].name == name {
			return &variables[i]
		}
	}
	return nil
}

// setVariable is SET VARIABLE name = value (RAL): the paper's
// transaction-type switch plus the runtime's other knobs.
func (h *Handler) setVariable(sess *core.Session, a assignment) (*core.Result, error) {
	set := setSessionVar
	if v := findVariable(a.name); v != nil {
		set = v.set
	}
	if err := set(h, sess, a.name, a.value); err != nil {
		return nil, err
	}
	return &core.Result{}, nil
}

// showVariable is SHOW VARIABLE name: one row, one column named after the
// variable.
func (h *Handler) showVariable(sess *core.Session, name string) (*core.Result, error) {
	name = strings.ToLower(name)
	var val string
	if v := findVariable(name); v == nil {
		if sv, ok := sess.Vars()[name]; ok {
			val = sv.AsString()
		}
	} else if v.get == nil {
		return nil, fmt.Errorf("%w: %s", ErrWriteOnly, name)
	} else {
		val = v.get(sess)
	}
	return rowsResult([]string{name}, []sqltypes.Row{{sqltypes.NewString(val)}}), nil
}

// setSessionVar hands the assignment to the kernel as SET name = 'value',
// the one place session variables are validated and applied.
func setSessionVar(_ *Handler, sess *core.Session, name, value string) error {
	_, err := sess.ExecuteStmt(&sqlparser.SetStmt{Name: name, Value: sqltypes.NewString(value)}, nil)
	return err
}

// intVar is a kernel-scoped integer variable with a lower bound of 0 or 1.
func intVar(min int64, apply func(*core.Kernel, int64)) func(*Handler, *core.Session, string, string) error {
	want := "a non-negative integer"
	if min > 0 {
		want = "a positive integer"
	}
	return func(_ *Handler, sess *core.Session, name, value string) error {
		n, err := strconv.ParseInt(strings.TrimSpace(value), 10, 64)
		if err != nil || n < min {
			return fmt.Errorf("distsql: %s wants %s, got %q", name, want, value)
		}
		apply(sess.Kernel(), n)
		return nil
	}
}

// boolVar is a kernel-scoped boolean variable, accepting the forms clients
// actually send.
func boolVar(apply func(*core.Kernel, bool)) func(*Handler, *core.Session, string, string) error {
	return func(_ *Handler, sess *core.Session, name, value string) error {
		switch strings.ToLower(strings.TrimSpace(value)) {
		case "true", "on", "1":
			apply(sess.Kernel(), true)
		case "false", "off", "0":
			apply(sess.Kernel(), false)
		default:
			return fmt.Errorf("distsql: %s wants true or false, got %q", name, value)
		}
		return nil
	}
}

// setCircuitBreak takes "<datasource>:on" or "<datasource>:off".
func setCircuitBreak(h *Handler, _ *core.Session, _, value string) error {
	if h.gov == nil {
		return fmt.Errorf("distsql: circuit breaking needs a governor")
	}
	parts := strings.SplitN(value, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("distsql: circuit_break wants '<datasource>:on|off'")
	}
	h.gov.BreakSource(parts[0], strings.EqualFold(parts[1], "on"))
	return nil
}

// setAdmissionQuota takes "<tenant>:<weight>": the tenant's
// weighted-fair-queueing share of the frontend admission queue.
func setAdmissionQuota(_ *Handler, sess *core.Session, _, value string) error {
	c := sess.Kernel().Admission()
	if c == nil {
		return fmt.Errorf("distsql: admission quotas need a proxy frontend with admission control")
	}
	parts := strings.SplitN(value, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("distsql: admission_quota wants '<tenant>:<weight>'")
	}
	w, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return fmt.Errorf("distsql: admission_quota weight wants a number, got %q", parts[1])
	}
	return c.SetWeight(strings.TrimSpace(parts[0]), w)
}
