package journal

// SegmentFile is the file interface behind the active segment, exported to
// the fault-injection tests.
type SegmentFile = segmentFile

// WithSegmentWrapper has the journal wrap every segment file it opens, so a
// test can stall or fail its writes and fsyncs.
func WithSegmentWrapper(wrap func(SegmentFile) SegmentFile) Option {
	return func(j *Journal) { j.wrap = wrap }
}
