package transaction

import (
	"context"
	"sync"
	"sync/atomic"
)

// groupCommitter batches concurrent transactions' XA log operations into
// single store writes, amortizing the decision-point sync the way a
// database group-commits its WAL. The design is opportunistic
// leader/follower: the first arriving operation becomes the leader and
// writes immediately — a lone transaction pays zero added latency — while
// operations arriving during that write queue up and ride the leader's
// next batch.
type groupCommitter struct {
	store LogStore

	mu      sync.Mutex
	pending []logOp
	leading bool

	batches  atomic.Int64 // store round trips
	ops      atomic.Int64 // log operations carried
	maxBatch atomic.Int64
}

// logOp is one queued log operation: a decision record to write, or (rec
// nil) a retired transaction's record to delete.
type logOp struct {
	rec  *LogRecord
	xid  string
	done chan error
}

func newGroupCommitter(store LogStore) *groupCommitter {
	return &groupCommitter{store: store}
}

func (g *groupCommitter) write(ctx context.Context, rec LogRecord) error {
	return g.submit(ctx, logOp{rec: &rec})
}

func (g *groupCommitter) delete(ctx context.Context, xid string) error {
	return g.submit(ctx, logOp{xid: xid})
}

// submit enqueues the operation and blocks until a leader has written it.
// The context gates only the enqueue: once queued, the operation is part
// of a batch some leader will flush, so the caller waits for the verdict
// — abandoning it would leave the commit decision's durability unknown.
func (g *groupCommitter) submit(ctx context.Context, op logOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	op.done = make(chan error, 1)
	g.mu.Lock()
	g.pending = append(g.pending, op)
	if g.leading {
		g.mu.Unlock()
		return <-op.done
	}
	g.leading = true
	g.mu.Unlock()
	g.lead()
	return <-op.done
}

// lead drains the queue in batches until it is empty, then steps down. A
// follower that arrives after the step-down finds leading false and
// becomes the next leader — there is no standing goroutine and no timer
// to keep idle coordinators busy.
func (g *groupCommitter) lead() {
	for {
		g.mu.Lock()
		batch := g.pending
		g.pending = nil
		if len(batch) == 0 {
			g.leading = false
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()

		var recs []LogRecord
		var dels []string
		for _, op := range batch {
			if op.rec != nil {
				recs = append(recs, *op.rec)
			} else {
				dels = append(dels, op.xid)
			}
		}
		// Writes land before deletes. A batch never carries both for one
		// XID: a transaction's delete is only submitted after its own
		// write returned, and XIDs are never reused.
		var wErr, dErr error
		if len(recs) > 0 {
			wErr = g.store.WriteBatch(recs)
		}
		if len(dels) > 0 {
			dErr = g.store.DeleteBatch(dels)
		}
		for _, op := range batch {
			if op.rec != nil {
				op.done <- wErr
			} else {
				op.done <- dErr
			}
		}
		g.batches.Add(1)
		g.ops.Add(int64(len(batch)))
		for {
			cur := g.maxBatch.Load()
			if int64(len(batch)) <= cur || g.maxBatch.CompareAndSwap(cur, int64(len(batch))) {
				break
			}
		}
	}
}

func (g *groupCommitter) metrics() map[string]int64 {
	return map[string]int64{
		"group_batches":   g.batches.Load(),
		"group_ops":       g.ops.Load(),
		"group_max_batch": g.maxBatch.Load(),
	}
}
