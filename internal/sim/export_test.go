package sim

// SetEpochLimitForTest lowers the epoch-rollover threshold so tests can
// force many rebase cycles inside a short run; production engines roll
// over once per ~4 billion ticks. Call before Run.
func (e *Engine) SetEpochLimitForTest(limit uint32) {
	if limit <= 2*epochBase {
		panic("sim: test epoch limit must exceed the rebase floor")
	}
	e.epochLimit = limit
}
