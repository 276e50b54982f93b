package main

import (
	"strings"
	"time"

	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/sim"
	"routerwatch/internal/telemetry"
)

// busyClock accumulates wall time and call count inside protocol
// callbacks. Nested callbacks (a handler that runs another registered
// callback synchronously) are counted but timed only at the outermost.
type busyClock struct {
	busy  time.Duration
	calls int64
	depth int
}

func (c *busyClock) enter() time.Time {
	c.calls++
	c.depth++
	if c.depth > 1 {
		return time.Time{}
	}
	return time.Now()
}

func (c *busyClock) exit(start time.Time) {
	c.depth--
	if c.depth == 0 {
		c.busy += time.Since(start)
	}
}

// busyEnv is a protocol.Env decorator that times every callback the
// protocol registers: taps, control handlers and scheduled work. It only
// observes; dispatch order is the wrapped Env's.
type busyEnv struct {
	protocol.Env
	c *busyClock
}

func (e *busyEnv) timed(fn func()) func() {
	c := e.c
	return func() {
		start := c.enter()
		fn()
		c.exit(start)
	}
}

func (e *busyEnv) At(t time.Duration, fn func()) { e.Env.At(t, e.timed(fn)) }

func (e *busyEnv) After(d time.Duration, fn func()) { e.Env.After(d, e.timed(fn)) }

func (e *busyEnv) Every(interval time.Duration, fn func()) *sim.Ticker {
	return e.Env.Every(interval, e.timed(fn))
}

func (e *busyEnv) HandleControl(at packet.NodeID, kind string, h func(*network.ControlMessage)) {
	c := e.c
	e.Env.HandleControl(at, kind, func(m *network.ControlMessage) {
		start := c.enter()
		h(m)
		c.exit(start)
	})
}

func (e *busyEnv) Tap(at packet.NodeID, fn func(network.Event)) {
	c := e.c
	e.Env.Tap(at, func(ev network.Event) {
		start := c.enter()
		fn(ev)
		c.exit(start)
	})
}

// counterSums totals a registry's counters by base name, summing over
// labels (per-router, per-protocol).
func counterSums(reg *telemetry.Registry) map[string]int64 {
	sums := make(map[string]int64)
	for _, c := range reg.Snapshot().Counters {
		base, _, _ := strings.Cut(c.Name, "{")
		sums[base] += c.Value
	}
	return sums
}

// telemetryMetrics maps the per-layer work counts onto the counters the
// layers register.
var telemetryMetrics = []struct{ metric, counter, unit string }{
	{"network.pkts_forwarded", "rw_packets_forwarded_total", "count"},
	{"network.control_msgs", "rw_control_messages_total", "count"},
	{"network.control_relays", "rw_control_relays_total", "count"},
	{"queue.enqueued", "rw_queue_enqueued_total", "count"},
	{"queue.congestion_drops", "rw_queue_dropped_total", "count"},
	{"detector.rounds", "rw_detector_rounds_total", "count"},
	{"detector.fingerprints", "rw_detector_fingerprints_total", "count"},
	{"detector.summary_bytes", "rw_detector_summary_bytes_total", "B"},
	{"detector.suspicions", "rw_detector_suspicions_total", "count"},
	{"capture.events_replayed", "rw_replay_events_total", "count"},
	{"sim.events", "rw_sim_events_total", "count"},
}
