package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// spanCapacity bounds the spans one recorder holds between two drains. The
// loop drains at every batch boundary, and a batch of the busiest workload
// (bulk-central: about 530 spans per invocation across both worlds) stays
// well below it; a drain that finds the ring full fails the run rather than
// attributing from a partial trace.
const spanCapacity = 1 << 16

// tracer is the traced run's observability wiring: span recorders for the
// client and server worlds, one metrics registry for both sides, and frame
// counters fed by transport.Options.FrameHook on every connection.
type tracer struct {
	cli, srv *obs.Recorder
	reg      *obs.Registry

	frames atomic.Int64
	bytes  atomic.Int64 // frame headers, extensions and bodies

	counting atomic.Bool      // frames are counted only in measured loops
	start    obs.Snapshot     // registry at the start of the current loop
	deltas   map[string]int64 // registry counters accumulated over measured loops
	err      error            // first drain failure; the run fails with it

	drains  int
	pending map[uint64]*tokenSpans
	futWait time.Duration // client rank 0 future-wait spans
	att     attribution
	binds   []time.Duration
}

func newTracer() *tracer {
	return &tracer{
		cli:     obs.NewRecorder(spanCapacity),
		srv:     obs.NewRecorder(spanCapacity),
		reg:     obs.NewRegistry(),
		pending: map[uint64]*tokenSpans{},
		deltas:  map[string]int64{},
	}
}

// hook counts every inbound frame. With it installed on both sides, every
// frame in either direction is counted exactly once.
func (t *tracer) hook(h wire.Header) {
	if !t.counting.Load() {
		return
	}
	t.frames.Add(1)
	t.bytes.Add(int64(wire.HeaderLen + h.ExtLen() + int(h.Size)))
}

// tokenSpans collects the spans of one invocation token.
type tokenSpans struct {
	drain      int // drain that first saw the token
	invoke     obs.Span
	haveInvoke bool
	phases     []obs.Span // client rank 0 phases inside the invoke span
	chunkSend  []int64    // client rank 0 chunk-send durations
	chunkRecv  []int64
	queue      int64 // server rank 0
	recvXfer   int64 // server, slowest rank
	sendXfer   int64
}

// take drains both recorders and folds their spans into per-token records.
// Tokens first seen at an earlier drain are complete by now — a whole batch
// has run since — and are attributed and dropped; the rest wait for the
// next drain, so a server rank that records its span just after the client
// returned is still counted. final attributes everything still pending.
func (t *tracer) take(final bool) {
	t.drains++
	for _, rec := range []*obs.Recorder{t.cli, t.srv} {
		spans := rec.Spans()
		rec.Reset()
		if len(spans) >= spanCapacity && t.err == nil {
			t.err = fmt.Errorf("span ring overflowed between drains (%d spans)", len(spans))
		}
		server := rec == t.srv
		for _, s := range spans {
			t.ingest(s, server)
		}
	}
	for tok, ts := range t.pending {
		if final || ts.drain < t.drains {
			if ts.haveInvoke {
				t.att.add(ts)
			}
			delete(t.pending, tok)
		}
	}
}

// registryDeltas names the registry values whose change over the measured
// loops is reported: counters, then values pulled from the servers.
var registryDeltas = []string{"core.compress.skipped_total", "orb.client.retries", "orb.server.shed"}

func snapValue(s obs.Snapshot, name string) int64 {
	if v, ok := s.Counters[name]; ok {
		return int64(v)
	}
	return s.Pulled[name]
}

// begin starts a measured loop: frames count from here, and the registry
// is read so the loop's counter changes can be told apart from set-up's.
func (t *tracer) begin() {
	t.discard()
	t.start = t.reg.Snapshot()
	t.counting.Store(true)
}

// end closes a measured loop. It lets server ranks finish recording the
// last invocation, attributes everything still pending, and reads the
// registry while the servers still publish their pulled statistics.
func (t *tracer) end() {
	t.counting.Store(false)
	time.Sleep(20 * time.Millisecond)
	t.take(true)
	now := t.reg.Snapshot()
	for _, name := range registryDeltas {
		t.deltas[name] += snapValue(now, name) - snapValue(t.start, name)
	}
}

// discard drops everything recorded so far (set-up and warm-up
// invocations), keeping only the bind spans, which time set-up.
func (t *tracer) discard() {
	for _, s := range t.cli.Spans() {
		if s.Phase == obs.PhaseBind && s.Rank == 0 {
			t.binds = append(t.binds, time.Duration(s.Dur))
		}
	}
	t.cli.Reset()
	t.srv.Reset()
	t.pending = map[uint64]*tokenSpans{}
}

func (t *tracer) ingest(s obs.Span, server bool) {
	if !server && s.Phase == obs.PhaseFutureWait {
		if s.Rank == 0 {
			t.futWait += time.Duration(s.Dur)
		}
		return
	}
	if s.Trace == 0 {
		return
	}
	ts := t.pending[s.Trace]
	if ts == nil {
		ts = &tokenSpans{drain: t.drains}
		t.pending[s.Trace] = ts
	}
	if server {
		switch s.Phase {
		case obs.PhaseQueue:
			if s.Rank == 0 {
				ts.queue = s.Dur
			}
		case obs.PhaseRecvXfer:
			ts.recvXfer = max(ts.recvXfer, s.Dur)
		case obs.PhaseSendXfer:
			ts.sendXfer = max(ts.sendXfer, s.Dur)
		}
		return
	}
	if s.Rank != 0 {
		return
	}
	switch s.Phase {
	case obs.PhaseInvoke:
		ts.invoke, ts.haveInvoke = s, true
	case obs.PhaseChunkSend:
		ts.chunkSend = append(ts.chunkSend, s.Dur)
	case obs.PhaseChunkRecv:
		ts.chunkRecv = append(ts.chunkRecv, s.Dur)
	default:
		if _, ok := priority[s.Phase]; ok {
			ts.phases = append(ts.phases, s)
		}
	}
}

// priority orders the client phases for attribution: where phase spans
// overlap, an instant belongs to the phase listed first. The stack records
// the streamed gather and the multi-port pack as accumulated durations
// anchored at the start of the send/receive span, which encloses them, so
// they rank ahead of sendrecv; sendrecv's self time is then the wire and
// server time that no client phase explains.
var priority = map[obs.Phase]int{
	obs.PhasePack:     0,
	obs.PhaseGather:   1,
	obs.PhaseUnpack:   2,
	obs.PhaseBarrier:  3,
	obs.PhaseScatter:  4,
	obs.PhaseSendRecv: 5,
}

var phaseMetric = map[obs.Phase]string{
	obs.PhasePack:     "core.pack_ms",
	obs.PhaseGather:   "core.gather_ms",
	obs.PhaseUnpack:   "core.unpack_ms",
	obs.PhaseBarrier:  "core.barrier_ms",
	obs.PhaseScatter:  "core.scatter_ms",
	obs.PhaseSendRecv: "core.sendrecv_ms",
}

// attribution sums, over attributed invocations, the invoke span and the
// self time of each client phase within it.
type attribution struct {
	n            int
	invoke       int64
	self         map[obs.Phase]int64
	unattributed int64

	chunkSend, chunkRecv     int64
	nChunkSend, nChunkRecv   int
	queue, recvXfer, sendXfr int64
}

// add partitions one invoke span among its phases: every instant of
// [start, end) goes to the highest-priority phase span covering it, or to
// the unattributed remainder. The parts sum to the span by construction.
func (a *attribution) add(ts *tokenSpans) {
	if a.self == nil {
		a.self = map[obs.Phase]int64{}
	}
	lo, hi := ts.invoke.Start, ts.invoke.Start+ts.invoke.Dur
	cuts := []int64{lo, hi}
	for _, p := range ts.phases {
		for _, c := range []int64{p.Start, p.Start + p.Dur} {
			if c > lo && c < hi {
				cuts = append(cuts, c)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		x, y := cuts[i], cuts[i+1]
		if y == x {
			continue
		}
		best, bestPri := obs.Phase(0), len(priority)
		for _, p := range ts.phases {
			if pri := priority[p.Phase]; pri < bestPri && p.Start <= x && y <= p.Start+p.Dur {
				best, bestPri = p.Phase, pri
			}
		}
		if bestPri == len(priority) {
			a.unattributed += y - x
		} else {
			a.self[best] += y - x
		}
	}
	a.n++
	a.invoke += ts.invoke.Dur
	for _, d := range ts.chunkSend {
		a.chunkSend += d
	}
	for _, d := range ts.chunkRecv {
		a.chunkRecv += d
	}
	a.nChunkSend += len(ts.chunkSend)
	a.nChunkRecv += len(ts.chunkRecv)
	a.queue += ts.queue
	a.recvXfer += ts.recvXfer
	a.sendXfr += ts.sendXfer
}

// check confirms the partition: phase self times plus the remainder must
// equal the summed invoke spans exactly.
func (a *attribution) check() error {
	sum := a.unattributed
	for _, v := range a.self {
		sum += v
	}
	if sum != a.invoke {
		return fmt.Errorf("attribution: phases+remainder %d ns != invoke spans %d ns", sum, a.invoke)
	}
	return nil
}
