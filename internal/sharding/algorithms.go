package sharding

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// The six preset algorithms: MOD, HASH_MOD, VOLUME_RANGE, BOUNDARY_RANGE,
// INLINE and INTERVAL. Each shards on one column; user code adds its own
// through Register.
func init() {
	Register("MOD", func() Algorithm { return &modAlgorithm{} })
	Register("HASH_MOD", func() Algorithm { return &hashModAlgorithm{} })
	Register("VOLUME_RANGE", func() Algorithm { return &volumeRangeAlgorithm{} })
	Register("BOUNDARY_RANGE", func() Algorithm { return &boundaryRangeAlgorithm{} })
	Register("INLINE", func() Algorithm { return &inlineAlgorithm{} })
	Register("INTERVAL", func() Algorithm { return &intervalAlgorithm{} })
}

func propInt(props map[string]string, key string) (int64, error) {
	s, ok := props[key]
	if !ok {
		return 0, fmt.Errorf("%w: missing %q", ErrBadProperty, key)
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q=%q", ErrBadProperty, key, s)
	}
	return n, nil
}

// --- MOD ---

// modAlgorithm shards integers by value % sharding-count; the paper's
// running example ("uid % 2").
type modAlgorithm struct {
	count int64
}

func (a *modAlgorithm) Init(props map[string]string) error {
	n, err := propInt(props, "sharding-count")
	if err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("%w: sharding-count must be positive", ErrBadProperty)
	}
	a.count = n
	return nil
}

func (a *modAlgorithm) index(targets []string, idx int64) (string, error) {
	if int(a.count) != len(targets) {
		// Targets may be a subset list (e.g. data sources); wrap by len.
		if len(targets) == 0 {
			return "", ErrNoTarget
		}
		return targets[idx%int64(len(targets))], nil
	}
	return targets[idx], nil
}

func (a *modAlgorithm) Precise(targets []string, v sqltypes.Value) (string, error) {
	idx := ((v.AsInt() % a.count) + a.count) % a.count
	return a.index(targets, idx)
}

func (a *modAlgorithm) DoRange(targets []string, lo, hi *sqltypes.Value) ([]string, error) {
	if lo != nil && hi != nil {
		span := hi.AsInt() - lo.AsInt() // may wrap; then it is not below count-1
		if span >= 0 && span < a.count-1 {
			out := make([]string, 0, span+1)
			seen := map[string]bool{}
			for i := int64(0); i <= span; i++ {
				t, err := a.Precise(targets, sqltypes.NewInt(lo.AsInt()+i))
				if err != nil {
					return nil, err
				}
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
			return out, nil
		}
	}
	return targets, nil
}

// --- HASH_MOD ---

// hashModAlgorithm shards arbitrary values by FNV hash % sharding-count;
// the algorithm JD Baitiao's deployment uses on user ids to spread hot
// keys (paper Section VII-B).
type hashModAlgorithm struct {
	count int64
}

func (a *hashModAlgorithm) Init(props map[string]string) error {
	n, err := propInt(props, "sharding-count")
	if err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("%w: sharding-count must be positive", ErrBadProperty)
	}
	a.count = n
	return nil
}

// hashValue hashes the value's text. The router has read the value as its
// column's kind (sqltypes.Narrow), so one key has one text.
func hashValue(v sqltypes.Value) int64 {
	h := fnv.New64a()
	h.Write([]byte(v.AsString()))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

func (a *hashModAlgorithm) Precise(targets []string, v sqltypes.Value) (string, error) {
	idx := hashValue(v) % a.count
	if int(a.count) != len(targets) {
		if len(targets) == 0 {
			return "", ErrNoTarget
		}
		return targets[idx%int64(len(targets))], nil
	}
	return targets[idx], nil
}

func (a *hashModAlgorithm) DoRange(targets []string, _, _ *sqltypes.Value) ([]string, error) {
	// Hashes do not preserve order: a range can land anywhere.
	return targets, nil
}

// --- VOLUME_RANGE ---

// volumeRangeAlgorithm buckets a numeric key into fixed-volume ranges:
// range-lower, range-upper, sharding-volume.
type volumeRangeAlgorithm struct {
	lower, upper, volume int64
}

func (a *volumeRangeAlgorithm) Init(props map[string]string) error {
	var err error
	if a.lower, err = propInt(props, "range-lower"); err != nil {
		return err
	}
	if a.upper, err = propInt(props, "range-upper"); err != nil {
		return err
	}
	if a.volume, err = propInt(props, "sharding-volume"); err != nil {
		return err
	}
	if a.volume <= 0 || a.upper <= a.lower {
		return fmt.Errorf("%w: need range-lower < range-upper and positive sharding-volume", ErrBadProperty)
	}
	return nil
}

// bucketCount is the number of interior buckets; targets also include one
// underflow and one overflow bucket at the ends.
func (a *volumeRangeAlgorithm) bucketIndex(v int64) int64 {
	switch {
	case v < a.lower:
		return 0
	case v >= a.upper:
		return (a.upper-a.lower+a.volume-1)/a.volume + 1
	default:
		return (v-a.lower)/a.volume + 1
	}
}

func (a *volumeRangeAlgorithm) Precise(targets []string, v sqltypes.Value) (string, error) {
	idx := a.bucketIndex(v.AsInt())
	if idx >= int64(len(targets)) {
		return "", fmt.Errorf("%w: bucket %d of %d targets", ErrNoTarget, idx, len(targets))
	}
	return targets[idx], nil
}

func (a *volumeRangeAlgorithm) DoRange(targets []string, lo, hi *sqltypes.Value) ([]string, error) {
	loIdx := int64(0)
	hiIdx := int64(len(targets) - 1)
	if lo != nil {
		loIdx = a.bucketIndex(lo.AsInt())
	}
	if hi != nil {
		hiIdx = a.bucketIndex(hi.AsInt())
	}
	if hiIdx >= int64(len(targets)) {
		hiIdx = int64(len(targets) - 1)
	}
	var out []string
	for i := loIdx; i <= hiIdx && i < int64(len(targets)); i++ {
		out = append(out, targets[i])
	}
	if len(out) == 0 {
		return nil, ErrNoTarget
	}
	return out, nil
}

// --- BOUNDARY_RANGE ---

// boundaryRangeAlgorithm buckets by explicit boundaries:
// sharding-ranges="10,20,30" yields 4 targets: (,10) [10,20) [20,30) [30,).
type boundaryRangeAlgorithm struct {
	bounds []int64
}

func (a *boundaryRangeAlgorithm) Init(props map[string]string) error {
	s, ok := props["sharding-ranges"]
	if !ok {
		return fmt.Errorf("%w: missing %q", ErrBadProperty, "sharding-ranges")
	}
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return fmt.Errorf("%w: sharding-ranges=%q", ErrBadProperty, s)
		}
		a.bounds = append(a.bounds, n)
	}
	for i := 1; i < len(a.bounds); i++ {
		if a.bounds[i] <= a.bounds[i-1] {
			return fmt.Errorf("%w: sharding-ranges must be ascending", ErrBadProperty)
		}
	}
	if len(a.bounds) == 0 {
		return fmt.Errorf("%w: sharding-ranges empty", ErrBadProperty)
	}
	return nil
}

func (a *boundaryRangeAlgorithm) bucketIndex(v int64) int64 {
	idx := int64(0)
	for _, b := range a.bounds {
		if v >= b {
			idx++
		}
	}
	return idx
}

func (a *boundaryRangeAlgorithm) Precise(targets []string, v sqltypes.Value) (string, error) {
	idx := a.bucketIndex(v.AsInt())
	if idx >= int64(len(targets)) {
		return "", fmt.Errorf("%w: bucket %d of %d targets", ErrNoTarget, idx, len(targets))
	}
	return targets[idx], nil
}

func (a *boundaryRangeAlgorithm) DoRange(targets []string, lo, hi *sqltypes.Value) ([]string, error) {
	loIdx := int64(0)
	hiIdx := int64(len(targets) - 1)
	if lo != nil {
		loIdx = a.bucketIndex(lo.AsInt())
	}
	if hi != nil {
		hiIdx = a.bucketIndex(hi.AsInt())
	}
	if hiIdx >= int64(len(targets)) {
		hiIdx = int64(len(targets) - 1)
	}
	var out []string
	for i := loIdx; i <= hiIdx && i < int64(len(targets)); i++ {
		out = append(out, targets[i])
	}
	if len(out) == 0 {
		return nil, ErrNoTarget
	}
	return out, nil
}

// --- INLINE ---

// inlineAlgorithm evaluates a Groovy-style expression template such as
// "t_user_${uid % 2}". The ${...} body is parsed with the SQL expression
// parser and evaluated with the sharding column bound to the value.
type inlineAlgorithm struct {
	prefix, suffix string
	expr           sqlparser.Expr
	column         string
	// allowRangeQuery mirrors the upstream property: when false, inline
	// sharding rejects range conditions (they would need full broadcast).
	allowRange bool
}

func (a *inlineAlgorithm) Init(props map[string]string) error {
	tpl, ok := props["algorithm-expression"]
	if !ok {
		return fmt.Errorf("%w: missing %q", ErrBadProperty, "algorithm-expression")
	}
	start := strings.Index(tpl, "${")
	end := strings.LastIndex(tpl, "}")
	if start < 0 || end < start {
		return fmt.Errorf("%w: algorithm-expression needs ${...}: %q", ErrBadProperty, tpl)
	}
	a.prefix = tpl[:start]
	a.suffix = tpl[end+1:]
	body := tpl[start+2 : end]
	stmt, err := sqlparser.Parse("SELECT " + body)
	if err != nil {
		return fmt.Errorf("%w: algorithm-expression %q: %v", ErrBadProperty, body, err)
	}
	sel := stmt.(*sqlparser.SelectStmt)
	a.expr = sel.Items[0].Expr
	sqlparser.WalkExpr(a.expr, func(e sqlparser.Expr) bool {
		if c, ok := e.(*sqlparser.ColumnRef); ok && a.column == "" {
			a.column = c.Name
		}
		return true
	})
	a.allowRange = props["allow-range-query-with-inline-sharding"] == "true"
	return nil
}

func (a *inlineAlgorithm) Precise(targets []string, v sqltypes.Value) (string, error) {
	val, err := evalInline(a.expr, a.column, v)
	if err != nil {
		return "", err
	}
	name := a.prefix + val.AsString() + a.suffix
	for _, t := range targets {
		if t == name {
			return t, nil
		}
	}
	return "", fmt.Errorf("%w: inline result %q not among targets", ErrNoTarget, name)
}

func (a *inlineAlgorithm) DoRange(targets []string, _, _ *sqltypes.Value) ([]string, error) {
	if !a.allowRange {
		return nil, fmt.Errorf("sharding: inline algorithm forbids range queries (set allow-range-query-with-inline-sharding=true)")
	}
	return targets, nil
}

// evalInline evaluates the template expression with column bound to v.
// A tiny standalone environment avoids importing the executor here.
func evalInline(e sqlparser.Expr, column string, v sqltypes.Value) (sqltypes.Value, error) {
	switch t := e.(type) {
	case *sqlparser.Literal:
		return t.Val, nil
	case *sqlparser.ColumnRef:
		if strings.EqualFold(t.Name, column) {
			return v, nil
		}
		return sqltypes.Null, fmt.Errorf("sharding: inline expression references unknown column %q", t.Name)
	case *sqlparser.BinaryExpr:
		l, err := evalInline(t.L, column, v)
		if err != nil {
			return sqltypes.Null, err
		}
		r, err := evalInline(t.R, column, v)
		if err != nil {
			return sqltypes.Null, err
		}
		switch t.Op {
		case sqlparser.OpAdd:
			return sqltypes.Add(l, r), nil
		case sqlparser.OpSub:
			return sqltypes.Sub(l, r), nil
		case sqlparser.OpMul:
			return sqltypes.Mul(l, r), nil
		case sqlparser.OpDiv:
			// Integer division for sharding math.
			if r.AsInt() == 0 {
				return sqltypes.Null, fmt.Errorf("sharding: division by zero in inline expression")
			}
			return sqltypes.NewInt(l.AsInt() / r.AsInt()), nil
		case sqlparser.OpMod:
			return sqltypes.Mod(l, r), nil
		default:
			return sqltypes.Null, fmt.Errorf("sharding: unsupported operator in inline expression")
		}
	default:
		return sqltypes.Null, fmt.Errorf("sharding: unsupported inline expression node %T", e)
	}
}

// --- INTERVAL ---

// intervalAlgorithm shards timestamps by calendar interval with a suffix
// pattern, e.g. monthly tables t_order_202101, t_order_202102 ... — the
// scheme China Telecom BestPay used (paper Section VII-B).
type intervalAlgorithm struct {
	lower         time.Time
	suffixPattern string // Go layout derived from datetime-pattern-ish props
	unit          string // MONTHS or DAYS
	amount        int64
}

const timeLayout = "2006-01-02 15:04:05"

// parseTimeValue reads a datetime sharding value: an integer is Unix
// seconds, anything else text in timeLayout.
func parseTimeValue(v sqltypes.Value) (time.Time, error) {
	if v.Kind == sqltypes.KindInt {
		return time.Unix(v.I, 0).UTC(), nil
	}
	t, err := time.Parse(timeLayout, v.AsString())
	if err != nil {
		return time.Time{}, fmt.Errorf("sharding: bad datetime %q", v.AsString())
	}
	return t, nil
}

func (a *intervalAlgorithm) Init(props map[string]string) error {
	lo, ok := props["datetime-lower"]
	if !ok {
		return fmt.Errorf("%w: missing %q", ErrBadProperty, "datetime-lower")
	}
	var err error
	if a.lower, err = time.Parse(timeLayout, lo); err != nil {
		return fmt.Errorf("%w: datetime-lower=%q", ErrBadProperty, lo)
	}
	switch props["sharding-suffix-pattern"] {
	case "yyyyMM", "":
		a.suffixPattern = "200601"
	case "yyyyMMdd":
		a.suffixPattern = "20060102"
	default:
		return fmt.Errorf("%w: sharding-suffix-pattern %q", ErrBadProperty, props["sharding-suffix-pattern"])
	}
	a.unit = props["datetime-interval-unit"]
	if a.unit == "" {
		a.unit = "MONTHS"
	}
	a.amount = 1
	if s, ok := props["datetime-interval-amount"]; ok {
		if a.amount, err = strconv.ParseInt(s, 10, 64); err != nil || a.amount <= 0 {
			return fmt.Errorf("%w: datetime-interval-amount=%q", ErrBadProperty, s)
		}
	}
	return nil
}

func (a *intervalAlgorithm) suffixFor(t time.Time) string {
	return t.Format(a.suffixPattern)
}

func (a *intervalAlgorithm) step(t time.Time) time.Time {
	if a.unit == "DAYS" {
		return t.AddDate(0, 0, int(a.amount))
	}
	return t.AddDate(0, int(a.amount), 0)
}

// periodStart normalizes t to the start of its interval.
func (a *intervalAlgorithm) periodStart(t time.Time) time.Time {
	cur := a.lower
	for {
		next := a.step(cur)
		if next.After(t) {
			return cur
		}
		cur = next
	}
}

func (a *intervalAlgorithm) Precise(targets []string, v sqltypes.Value) (string, error) {
	t, err := parseTimeValue(v)
	if err != nil {
		return "", err
	}
	if t.Before(a.lower) {
		t = a.lower
	}
	suffix := a.suffixFor(a.periodStart(t))
	for _, cand := range targets {
		if strings.HasSuffix(cand, suffix) {
			return cand, nil
		}
	}
	return "", fmt.Errorf("%w: no target with suffix %s", ErrNoTarget, suffix)
}

func (a *intervalAlgorithm) DoRange(targets []string, lo, hi *sqltypes.Value) ([]string, error) {
	loT := a.lower
	if lo != nil {
		t, err := parseTimeValue(*lo)
		if err != nil {
			return nil, err
		}
		if t.After(loT) {
			loT = t
		}
	}
	var hiT time.Time
	if hi != nil {
		t, err := parseTimeValue(*hi)
		if err != nil {
			return nil, err
		}
		hiT = t
	}
	var out []string
	cur := a.periodStart(loT)
	for i := 0; i < len(targets)+2; i++ { // bounded walk
		suffix := a.suffixFor(cur)
		for _, cand := range targets {
			if strings.HasSuffix(cand, suffix) {
				out = append(out, cand)
			}
		}
		cur = a.step(cur)
		if hi != nil && cur.After(hiT) {
			break
		}
		if hi == nil && len(out) == len(targets) {
			break
		}
	}
	if len(out) == 0 {
		return nil, ErrNoTarget
	}
	return out, nil
}
