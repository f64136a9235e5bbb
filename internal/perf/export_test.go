package perf

// AttachReference drives the retained pre-optimization event path (see
// refMirror) in lockstep with p, which must be fresh or just Reset, and
// returns a function that reports it. For any event stream the reference's
// Report equals p's in every field but WallTime. A profiler with a
// reference attached cannot enter sampled mode.
func AttachReference(p *Profiler) func() Report {
	r := newRefMirror()
	p.mirror = r
	return r.counts.Report
}
