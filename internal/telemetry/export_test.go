package telemetry

// Start begins a pooled trace for one statement, as StartInto does in
// caller-owned storage; Finish returns it to the pool.
func (c *Collector) Start(sql string) *Trace {
	if c == nil {
		return nil
	}
	return c.begin(sql, false)
}
