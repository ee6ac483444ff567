package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/zcodec"
)

// workload is one closed-loop invocation mix: a 2-rank SPMD client calling
// xfer(inout dsequence<double> arr) on a 2-rank SPMD object over loopback
// TCP. README.md records why each one exists.
type workload struct {
	name       string
	method     core.Method
	elems      int
	window     int       // outstanding invocations; 1 is blocking InvokeMethod
	compress   bool      // both sides offer zcodec.Supported under PolicyAuto
	serverSpec dist.Spec // server distribution template; nil is uniform block
	linkBps    int       // per-direction throttle on client connections; 0 is none
	batch      int       // invocations between stop checks and span drains
}

var workloads = []workload{
	{name: "bulk-central", method: core.Centralized, elems: 1 << 19, window: 1, compress: true, batch: 16},
	{name: "redist-multiport", method: core.Multiport, elems: 1 << 19, window: 1,
		serverSpec: dist.Proportions{P: []int{1, 3}}, batch: 16},
	{name: "small-pipelined", method: core.Centralized, elems: 2048, window: 4, batch: 256},
	{name: "thin-link-auto", method: core.Centralized, elems: 1 << 15, window: 1, compress: true,
		linkBps: 64 << 20, batch: 32},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	ranks     = 2
	opTimeout = 10 * time.Second
	opName    = "xfer"
)

// env is what the stacks of one run share: the workload, its seeded field,
// the wrong-element tallies of both sides and, for a traced segment, the
// tracer.
type env struct {
	w    workload
	want []float64
	tr   *tracer // nil when untraced

	srvWrong     atomic.Int64 // elements the servant rejected
	cliWrong     atomic.Int64 // returned elements that failed the client check
	peerWrongInv atomic.Int64 // invocations with a wrong element on a rank other than 0
}

// server is one exported SPMD object with its naming server.
type server struct {
	ns     *naming.Server
	world  *rts.World
	done   chan error
	mu     sync.Mutex
	objs   []*core.Object
	export time.Duration // rank 0's core.Export call
}

func (e *env) startServer() (*server, error) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("naming server: %w", err)
	}
	s := &server{ns: ns, world: rts.NewWorld(ranks, rts.Options{RecvTimeout: 2 * opTimeout}),
		done: make(chan error, 1), objs: make([]*core.Object, ranks)}
	desc := core.OpDesc{Name: opName, Args: []core.ArgDesc{{Name: "arr", Dir: core.InOut, Elem: "double", Spec: e.w.serverSpec}}}
	opts := core.ExportOptions{
		TypeID:     "IDL:pardisbench/xfer:1.0",
		Multiport:  e.w.method == core.Multiport,
		Name:       "xfer",
		NameServer: ns.Addr(),
	}
	if e.w.compress {
		opts.Compression = zcodec.Supported
	}
	if e.tr != nil {
		// The adapters use zero-valued transport options when given none,
		// so options carrying only the hook leave the server's wire as is.
		opts.Trace = e.tr.srv
		opts.Server = orb.ServerOptions{Metrics: e.tr.reg, Transport: &transport.Options{FrameHook: e.tr.hook}}
	}
	op := core.Operation{Desc: desc, NewArgs: core.SeqArgsFloat64(desc.Args), Handler: e.servant}
	ready := make(chan error, ranks)
	go func() {
		s.done <- s.world.Run(func(c *rts.Comm) error {
			start := time.Now()
			obj, err := core.Export(c, opts, []core.Operation{op})
			if c.Rank() == 0 {
				s.export = time.Since(start)
			}
			ready <- err
			if err != nil {
				return err
			}
			s.mu.Lock()
			s.objs[c.Rank()] = obj
			s.mu.Unlock()
			return obj.Serve()
		})
	}()
	var errs []error
	for i := 0; i < ranks; i++ {
		errs = append(errs, <-ready)
	}
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, fmt.Errorf("export: %w", err)
	}
	return s, nil
}

func (s *server) close() {
	s.mu.Lock()
	objs := append([]*core.Object(nil), s.objs...)
	s.mu.Unlock()
	for _, o := range objs {
		if o != nil {
			o.Close()
		}
	}
	<-s.done
	s.world.Close()
	s.ns.Close()
}

// servant checks every element this rank received against the seeded input
// of the invocation whose sequence number the scalar argument carries, then
// applies the transform in place.
func (e *env) servant(call *core.ServerCall) error {
	k, err := call.In.ReadULong()
	if err != nil {
		return err
	}
	s := core.ArgSeq[float64](call, 0)
	local := s.LocalData()
	if bad, err := checkSlot(local, s.Layout().Intervals[call.Comm.Rank()], e.want, k, identity); bad > 0 {
		e.srvWrong.Add(int64(bad))
		return fmt.Errorf("servant: %d wrong elements: %w", bad, err)
	}
	for i, v := range local {
		local[i] = transform(v)
	}
	return nil
}

// client is one client rank's binding and its per-slot sequences (one per
// outstanding invocation, so no sequence is reused while a future holds it).
type client struct {
	e     *env
	c     *rts.Comm
	b     *core.Binding
	slots []*dseq.Seq[float64]
	ivs   []dist.Interval
	next  uint32 // sequence number of the next invocation
}

func (e *env) bind(c *rts.Comm, s *server) (*client, error) {
	opts := core.BindOptions{Method: e.w.method, Timeout: opTimeout, PipelineDepth: e.w.window}
	if e.w.compress {
		opts.Compression = zcodec.Supported
	}
	// Explicit options must name the native byte order: the zero value
	// is big-endian, which would add byte swapping the untraced raw
	// loopback path does not have.
	if e.w.linkBps > 0 || e.tr != nil {
		topts := &transport.Options{Order: cdr.NativeOrder}
		if bps := e.w.linkBps; bps > 0 {
			topts.Wrap = func(rw io.ReadWriteCloser) io.ReadWriteCloser { return newThrottle(rw, bps) }
		}
		if e.tr != nil {
			topts.FrameHook = e.tr.hook
		}
		opts.Transport = topts
	}
	if e.tr != nil {
		opts.Trace, opts.Metrics = e.tr.cli, e.tr.reg
	}
	b, err := core.SPMDBind(c, "xfer", s.ns.Addr(), opts)
	if err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	cl := &client{e: e, c: c, b: b}
	for i := 0; i < e.w.window; i++ {
		seq, err := dseq.New(c, dseq.Float64, e.w.elems, dist.Block{})
		if err != nil {
			b.Close()
			return nil, err
		}
		cl.slots = append(cl.slots, seq)
	}
	cl.ivs = cl.slots[0].Layout().Intervals[c.Rank()]
	return cl, nil
}

// prepare fills slot with the input of the next invocation and returns its
// sequence number, arguments and scalar payload.
func (cl *client) prepare(slot int) (uint32, []core.DistArg, []byte) {
	k := cl.next
	cl.next++
	seq := cl.slots[slot]
	fillSlot(seq.LocalData(), cl.ivs, cl.e.want, k)
	enc := core.ScalarEncoder()
	enc.WriteULong(k)
	return k, []core.DistArg{core.InOutSeq(seq)}, enc.Bytes()
}

// tally is rank 0's record of the invocations of one measured loop.
type tally struct {
	lat       []time.Duration
	attempted int
	errs      int
	firstErr  error
	marks     []mark // batch boundaries of a measured loop
}

// mark is the state of a measured loop at one batch boundary.
type mark struct {
	at   time.Time
	n    int // len(lat)
	errs int
	cpu  time.Duration // process CPU time
}

func (t *tally) mark() {
	t.marks = append(t.marks, mark{at: time.Now(), n: len(t.lat), errs: t.errs, cpu: cpuTime()})
}

// window is a stretch of consecutive batches of a measured loop.
type window struct {
	lat      []time.Duration
	errs     int
	dur, cpu time.Duration
}

// windows cuts the loop at the first batch boundary after every span of
// time, dropping a shorter tail; a loop shorter than span is one window.
func (t *tally) windows(span time.Duration) []window {
	var ws []window
	cut := func(a, b mark) window {
		return window{lat: t.lat[a.n:b.n], errs: b.errs - a.errs, dur: b.at.Sub(a.at), cpu: b.cpu - a.cpu}
	}
	from := 0
	for i := 1; i < len(t.marks); i++ {
		if t.marks[i].at.Sub(t.marks[from].at) >= span {
			ws = append(ws, cut(t.marks[from], t.marks[i]))
			from = i
		}
	}
	if len(ws) == 0 && len(t.marks) > 1 {
		ws = append(ws, cut(t.marks[0], t.marks[len(t.marks)-1]))
	}
	return ws
}

// finish verifies the reply of invocation k in slot and records it. A
// failed invocation's latency is recorded as unbounded: it missed every
// latency limit.
func (cl *client) finish(slot int, k uint32, d time.Duration, err error, t *tally) {
	if err == nil {
		if bad, verr := checkSlot(cl.slots[slot].LocalData(), cl.ivs, cl.e.want, k, transform); bad > 0 {
			cl.e.cliWrong.Add(int64(bad))
			if cl.c.Rank() != 0 {
				cl.e.peerWrongInv.Add(1)
			}
			err = verr
		}
	}
	if cl.c.Rank() != 0 {
		return
	}
	t.attempted++
	if err != nil {
		t.errs++
		if t.firstErr == nil {
			t.firstErr = err
		}
		d = time.Duration(1<<63 - 1)
	}
	t.lat = append(t.lat, d)
}

// run issues up to n invocations, keeping up to the workload's window
// outstanding, and waits for all of them. It stops issuing after the first
// invocation error, so a broken stack fails in a few timeouts rather than a
// batch of them; the engine agrees invocation errors across ranks, so every
// rank stops at the same invocation. It reports whether one failed.
func (cl *client) run(n int, t *tally) (failed bool) {
	w := cl.e.w
	if w.window == 1 {
		for i := 0; i < n && !failed; i++ {
			k, args, sc := cl.prepare(0)
			start := time.Now()
			_, err := cl.b.InvokeMethod(w.method, opName, sc, args, nil)
			cl.finish(0, k, time.Since(start), err, t)
			failed = err != nil
		}
		return failed
	}
	type pending struct {
		f     *core.Future
		k     uint32
		start time.Time
	}
	q := make([]pending, w.window) // q[slot] is the invocation in flight there
	wait := func(slot int) {
		p := q[slot]
		q[slot].f = nil
		_, err := p.f.Wait()
		cl.finish(slot, p.k, time.Since(p.start), err, t)
		failed = failed || err != nil
	}
	i := 0
	for ; i < n; i++ {
		slot := i % w.window
		if q[slot].f != nil {
			if wait(slot); failed {
				break
			}
		}
		k, args, sc := cl.prepare(slot)
		q[slot] = pending{k: k, start: time.Now()}
		q[slot].f = cl.b.InvokeNBMethod(w.method, opName, sc, args)
	}
	for j := i; j < i+w.window; j++ { // what is still in flight, oldest first
		if q[j%w.window].f != nil {
			wait(j % w.window)
		}
	}
	return failed
}

// segment is the outcome of one measured loop and the set-ups before it.
type segment struct {
	setups  []time.Duration // naming start through the first verified invocation
	exports []time.Duration
	tally         // measured invocations
	warm    tally // warm-up invocations: verified and counted, not timed
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSegment sets the stack up `setups` times — naming server, export, bind
// and one verified warm-up invocation — tearing down all but the last, then
// runs the closed loop on the last: warm unmeasured, then dur measured. It
// adds its results to seg, so several segments of one kind can be pooled.
func (e *env) runSegment(seg *segment, setups int, warm, dur time.Duration) error {
	for i := 0; i < setups; i++ {
		if err := e.setupOnce(seg, i == setups-1, warm, dur); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) setupOnce(seg *segment, measure bool, warm, dur time.Duration) error {
	start := time.Now()
	srv, err := e.startServer()
	if err != nil {
		return err
	}
	defer srv.close()
	cw := rts.NewWorld(ranks, rts.Options{RecvTimeout: 2 * opTimeout})
	defer cw.Close()
	return cw.Run(func(c *rts.Comm) error {
		cl, err := e.bind(c, srv)
		if err != nil {
			return err
		}
		defer cl.b.Close()
		var first tally
		cl.run(1, &first)
		// Rank 0 judges the first invocation once both ranks have checked
		// their elements, and broadcasts the verdict so every rank stops
		// together.
		if err := c.Barrier(); err != nil {
			return err
		}
		ok := []byte{1}
		if c.Rank() == 0 {
			seg.setups = append(seg.setups, time.Since(start))
			seg.exports = append(seg.exports, srv.export)
			if first.firstErr != nil || e.cliWrong.Load() > 0 || e.srvWrong.Load() > 0 {
				ok[0] = 0
			}
		}
		if ok, err = c.Bcast(0, ok); err != nil {
			return err
		}
		if ok[0] == 0 {
			return fmt.Errorf("first invocation failed or returned wrong elements: %v", first.firstErr)
		}
		if !measure {
			return nil
		}
		return cl.loop(seg, warm, dur)
	})
}

// loop runs verified but unmeasured batches for warm, so the heap and the
// adaptive estimators settle, then measured batches for dur.
func (cl *client) loop(seg *segment, warm, dur time.Duration) error {
	me := cl.c.Rank()
	tr := cl.e.tr
	if err := cl.batches(warm, &seg.warm, func() {
		if tr != nil {
			tr.discard()
		}
	}); err != nil {
		return err
	}
	var ms0 runtime.MemStats
	if me == 0 {
		if tr != nil {
			tr.begin()
		}
		runtime.ReadMemStats(&ms0)
		seg.mark()
	}
	if err := cl.batches(dur, &seg.tally, func() {
		seg.mark()
		if tr != nil {
			tr.take(false)
		}
	}); err != nil {
		return err
	}
	if me == 0 {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		seg.alloc += ms1.TotalAlloc - ms0.TotalAlloc
		seg.gcs += ms1.NumGC - ms0.NumGC
		seg.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		if tr != nil {
			tr.end()
		}
	}
	return nil
}

// batches runs batches of invocations until rank 0 has run them for dur.
// Between batches no invocation is in flight: rank 0 broadcasts whether to
// go on, then calls drain.
func (cl *client) batches(dur time.Duration, t *tally, drain func()) error {
	me := cl.c.Rank()
	start := time.Now()
	for {
		failed := cl.run(cl.e.w.batch, t)
		more := []byte{0}
		if me == 0 && !failed && time.Since(start) < dur {
			more[0] = 1
		}
		got, err := cl.c.Bcast(0, more)
		if err != nil {
			return err
		}
		if me == 0 {
			drain()
		}
		if got[0] == 0 {
			return nil
		}
	}
}
