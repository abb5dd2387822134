package telemetry

import (
	"testing"
	"time"
)

func BenchmarkTraceLifecycle(b *testing.B) {
	c := NewCollector()
	start := time.Now()
	var buf Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := c.StartInto(&buf, "SELECT c FROM sbtest WHERE id = ?", false)
		tr.Mark(StagePlanCache)
		tr.AddExecAttempt("ds0", start, time.Microsecond, 0, nil)
		tr.Mark(StageExecute)
		tr.Mark(StageMerge)
		tr.Finish(nil)
	}
}

func BenchmarkNow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = time.Now()
	}
}

func BenchmarkObserveExec(b *testing.B) {
	s := NewCollector().Source("ds0")
	for i := 0; i < b.N; i++ {
		s.Execute.Observe(time.Microsecond)
	}
}
