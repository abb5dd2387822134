package sqlexec

// seenLen is the number of texts the processor counts sights of without
// keeping them.
func (p *Processor) seenLen() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.seen)
}
