package exec

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy bounds the executor's transparent retry of transient unit
// failures. Retries apply only to idempotent reads outside transactions
// (the caller opts in per statement); DML is never retried — a timeout on
// an UPDATE may have committed, and replaying it is not safe.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per execution group, the first
	// included (default 3; 1 disables retrying).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff before attempt 2
	// (default 2ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff (default 50ms).
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is installed on every new executor.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
}

// backoff returns the jittered pause before the given retry (1-based):
// full jitter over an exponentially growing window, so synchronized
// retries from concurrent statements spread out instead of stampeding a
// recovering source.
func (p *RetryPolicy) backoff(retry int) time.Duration {
	window := p.BaseBackoff << (retry - 1)
	if window > p.MaxBackoff || window <= 0 {
		window = p.MaxBackoff
	}
	if window <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(window)) + 1)
}

// SetRetryPolicy replaces the executor's retry policy (nil restores the
// default). Safe to call concurrently with execution.
func (e *Executor) SetRetryPolicy(p *RetryPolicy) {
	if p == nil {
		p = DefaultRetryPolicy()
	}
	e.retryPolicy.Store(p)
}

// sleepCtx pauses for d or until ctx is done, returning ctx's error when
// interrupted.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// firstError picks the root cause from a fan-out: the first error that is
// not a deadline expiry, else the first expiry. A source that failed on
// its own explains the statement better than one the deadline cut off.
func firstError(errs []error) error {
	var deadline error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, context.DeadlineExceeded):
			return err
		case deadline == nil:
			deadline = err
		}
	}
	return deadline
}
