package telemetry

import "expvar"

// PublishExpvar registers a live view of the sink under the given
// expvar name (served at /debug/vars when net/http/pprof or expvar's
// handler is mounted). Each scrape re-snapshots the sink. It returns
// false — instead of panicking, as expvar.Publish would — if the name
// is already taken, so tests and restarted components can call it
// unconditionally.
func (m *Memory) PublishExpvar(name string) bool {
	if expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
	return true
}
