package main

// The closed-loop driver. Callers are application threads that each wait
// for a reply before sending the next statement (the paper's thread-count
// axis), so a slow system receives less load. Clients = nproc = 2.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

const (
	clients = 2
	slices  = 5
	warmUp  = 2 * time.Second
	// setups is how many times a run builds and loads the system; setup_s
	// is their median, the last one is the system measured.
	setups = 3
	// heapEvery is how often the timed window samples the live heap.
	heapEvery   = 100 * time.Millisecond
	sqlRollback = "ROLLBACK"
)

// failure classes, from the typed errors the kernel and pkg/client return.
var failureClasses = []string{"lock_wait_timeout", "deadlock", "overloaded", "in_doubt", "timeout", "other"}

// classify names a failed transaction's cause. Errors that crossed the
// wire arrive as text (pkg/client re-types only overload and in-doubt),
// so the sentinel's message is matched where errors.Is cannot see it.
func classify(err error) string {
	msg := strings.ToLower(err.Error())
	has := func(target error) bool {
		return errors.Is(err, target) || strings.Contains(msg, strings.ToLower(target.Error()))
	}
	if _, _, ok := client.IsOverloaded(err); ok {
		return "overloaded"
	}
	if _, ok := client.IsInDoubt(err); ok {
		return "in_doubt"
	}
	switch {
	case has(storage.ErrLockTimeout):
		return "lock_wait_timeout"
	case strings.Contains(msg, "deadlock"):
		// The storage engine reports deadlocks as lock-wait timeouts today;
		// the class exists so a detector added later has a place to count.
		return "deadlock"
	case has(core.ErrStatementTimeout) || has(context.DeadlineExceeded):
		return "timeout"
	}
	return "other"
}

// checkError is an output mismatch: fatal, never counted as a failure.
type checkError struct{ error }

// txnError is a transaction the system failed or refused.
type txnError struct {
	error
	atCommit bool
}

// runTxn runs one generated transaction on c, checking every output. On
// success the generator's model advances.
func runTxn(c conn, g *gen, ops []op) error {
	inTx := false
	for i := range ops {
		o := &ops[i]
		rows, affected, err := c.exec(o.sql, o.args)
		if err != nil {
			if inTx && o.kind != opCommit {
				c.exec(sqlRollback, nil)
			}
			return &txnError{err, o.kind == opCommit}
		}
		if err := g.check(o, rows, affected); err != nil {
			return &checkError{err}
		}
		inTx = o.kind != opCommit && (inTx || o.kind == opBegin)
	}
	g.commit()
	return nil
}

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Name    string `json:"name"`
	Clients int    `json:"clients"`
	Rows    int    `json:"rows"`
	// EndToEnd holds tps, p50_ms, p99_ms, heap_mb and setup_s of the timed
	// window: five slices, or one short slice when only the walk was asked.
	EndToEnd map[string]float64 `json:"end_to_end"`
	// SliceTPS is each slice's rate (tps is their median); SliceP50 and
	// SliceP99 show how the latencies spread across the slices, while
	// p50_ms and p99_ms pool every slice's Samples latencies.
	SliceTPS    []float64      `json:"slice_tps"`
	SliceP50    []float64      `json:"slice_p50_ms"`
	SliceP99    []float64      `json:"slice_p99_ms"`
	Samples     int            `json:"latency_samples"`
	Attempted   int            `json:"attempted"`
	Failed      int            `json:"failed"`
	FailedShare float64        `json:"failed_share"`
	FailedBy    map[string]int `json:"failed_by_class"`
	SetupS      []float64      `json:"setup_s_each"`
	FinalCheck  string         `json:"final_check"`
	// Layers holds the layer walk's metrics; absent layers did not run.
	Layers   map[string]float64 `json:"layers,omitempty"`
	WalkTxns int                `json:"walk_txns,omitempty"`
	// PhaseS is wall time per phase, in seconds.
	PhaseS map[string]float64 `json:"phase_s"`
}

type clientStats struct {
	lat       [slices]latHist // committed transactions' latencies, per slice
	attempted int
	failedBy  map[string]int
	commitErr int
}

type runOptions struct {
	seed    int64
	seconds int
	rows    int
	// timed asks for the end-to-end window, traced for the layer walk.
	timed, traced bool
	// walkTxns overrides the workload's walk length (tests).
	walkTxns int
	traceOut *[]span
}

// runWorkload sets the system up, warms it, measures, checks, and walks
// the layers, as opts asks.
func runWorkload(wl *workload, opts runOptions) (*workloadResult, error) {
	res := &workloadResult{Name: wl.name, Clients: clients, Rows: opts.rows,
		FailedBy: map[string]int{}, PhaseS: map[string]float64{}}
	phase := func(name string, t0 time.Time) { res.PhaseS[name] = time.Since(t0).Seconds() }

	// Set-up: dataset, system, load, generators, connections.
	tSetup := time.Now()
	var (
		d     *dataset
		sys   *system
		gens  []*gen
		conns []conn
		err   error
	)
	n := 1
	if opts.timed {
		n = setups
	}
	for i := 0; i < n; i++ {
		if sys != nil {
			closeAll(sys, conns)
		}
		t0 := time.Now()
		d = newDataset(opts.seed, opts.rows)
		if sys, err = buildSystem(wl, d); err != nil {
			return nil, err
		}
		if gens, conns, err = openClients(sys, d, wl, opts.seed); err != nil {
			sys.close()
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer func() { closeAll(sys, conns) }()
	phase("setup", tSetup)

	// Warm-up and timed window, in one loop so the clients never pause.
	tTimed := time.Now()
	sliceLen := time.Duration(opts.seconds) * time.Second / slices
	nslices := slices
	if !opts.timed {
		// A traced run keeps one slice: its allocation counters feed the
		// pipeline.* layer metrics.
		nslices = 1
	}
	stats := make([]clientStats, clients)
	start := time.Now().Add(warmUp)
	end := start.Add(time.Duration(nslices) * sliceLen)
	var fatal atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.failedBy = map[string]int{}
			for fatal.Load() == nil {
				ops := gens[w].next()
				t0 := time.Now()
				err := runTxn(conns[w], gens[w], ops)
				t1 := time.Now()
				var ce *checkError
				if errors.As(err, &ce) {
					fatal.CompareAndSwap(nil, &ce.error)
					return
				}
				i := int(t1.Sub(start) / sliceLen)
				if i >= nslices {
					return
				}
				if err != nil {
					// Warm-up failures count too: a failed COMMIT there
					// leaves the table in an unknown state all the same.
					st.attempted++
					st.noteFailure(err)
					continue
				}
				if t1.Before(start) {
					continue
				}
				st.attempted++
				st.lat[i].add(int64(t1.Sub(t0)))
			}
		}(w)
	}
	// The coordinator sleeps except to read counters: allocation totals at
	// both ends of the window, and the live heap ten times a second.
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(start))
	runtime.ReadMemStats(&m0)
	var heap []float64
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for tick := start.Add(heapEvery); tick.Before(end); tick = tick.Add(heapEvery) {
		time.Sleep(time.Until(tick))
		metrics.Read(live)
		heap = append(heap, float64(live[0].Value.Uint64())/(1<<20))
	}
	time.Sleep(time.Until(end))
	runtime.ReadMemStats(&m1)
	wg.Wait()
	if e := fatal.Load(); e != nil {
		return nil, fmt.Errorf("%s: output check failed: %w", wl.name, *e)
	}
	phase("warmup_and_timed", tTimed)

	commitErrs := 0
	var pooled latHist
	sliceTPS, sliceP50, sliceP99 := make([]float64, nslices), make([]float64, nslices), make([]float64, nslices)
	for i := 0; i < nslices; i++ {
		h := &stats[0].lat[i]
		for w := 1; w < clients; w++ {
			h.merge(&stats[w].lat[i])
		}
		pooled.merge(h)
		sliceTPS[i] = float64(h.n) / sliceLen.Seconds()
		sliceP50[i], sliceP99[i] = h.percentile(0.50)/1e6, h.percentile(0.99)/1e6
	}
	for w := range stats {
		st := &stats[w]
		res.Attempted += st.attempted
		commitErrs += st.commitErr
		for class, n := range st.failedBy {
			res.FailedBy[class] += n
			res.Failed += n
		}
	}
	if pooled.n == 0 {
		return nil, fmt.Errorf("%s: no transaction committed in the timed window", wl.name)
	}
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	res.Samples = pooled.n
	res.SliceTPS, res.SliceP50, res.SliceP99 = sliceTPS, sliceP50, sliceP99
	res.EndToEnd = map[string]float64{
		"tps":     median(sliceTPS),
		"p50_ms":  pooled.percentile(0.50) / 1e6,
		"p99_ms":  pooled.percentile(0.99) / 1e6,
		"heap_mb": median(heap),
		"setup_s": median(res.SetupS),
	}

	tCheck := time.Now()
	finalCheck := func() error {
		if commitErrs > 0 {
			res.FinalCheck = fmt.Sprintf("skipped: %d COMMITs failed, the table's state is unknown", commitErrs)
			return nil
		}
		res.FinalCheck = "ok"
		return sys.finalCheck(d, gens)
	}
	if err := finalCheck(); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	phase("final_check", tCheck)

	if opts.traced {
		tWalk := time.Now()
		walkTxns := wl.walkTxns
		if opts.walkTxns > 0 {
			walkTxns = opts.walkTxns
		}
		res.WalkTxns = walkTxns
		res.Layers, err = layerWalk(wl, sys, gens[0], opts.seed, walkTxns, opts.traceOut)
		if err != nil {
			return nil, fmt.Errorf("%s: layer walk: %w", wl.name, err)
		}
		res.Layers["pipeline.allocs_per_txn"] = float64(m1.Mallocs-m0.Mallocs) / float64(pooled.n)
		res.Layers["pipeline.alloc_bytes_per_txn"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(pooled.n)
		if err := finalCheck(); err != nil {
			return nil, fmt.Errorf("%s: after the layer walk: %w", wl.name, err)
		}
		phase("layer_walk", tWalk)
	}
	return res, nil
}

func (st *clientStats) noteFailure(err error) {
	st.failedBy[classify(err)]++
	var te *txnError
	if errors.As(err, &te) && te.atCommit {
		st.commitErr++
	}
}

// openClients makes each client's generator and connection.
func openClients(sys *system, d *dataset, wl *workload, seed int64) ([]*gen, []conn, error) {
	gens, conns := make([]*gen, clients), make([]conn, clients)
	for w := range gens {
		gens[w] = newGen(d, wl, seed, w, clients)
		c, err := sys.newConn()
		if err != nil {
			for _, c := range conns[:w] {
				c.close()
			}
			return nil, nil, err
		}
		conns[w] = c
	}
	return gens, conns, nil
}

func closeAll(sys *system, conns []conn) {
	for _, c := range conns {
		c.close()
	}
	sys.close()
}

// replay runs n transactions of g, one client, transaction i on
// conns[i % len(conns)], and returns the latencies each connection saw.
// Alternating two connections exposes both to the same drift. Any failure
// is an error: one client on its own rows has nothing to contend with.
func replay(g *gen, n int, conns ...conn) ([][]int64, error) {
	txnNs := make([][]int64, len(conns))
	for i := 0; i < n; i++ {
		ops := g.next()
		t0 := time.Now()
		if err := runTxn(conns[i%len(conns)], g, ops); err != nil {
			return nil, err
		}
		txnNs[i%len(conns)] = append(txnNs[i%len(conns)], int64(time.Since(t0)))
	}
	return txnNs, nil
}
