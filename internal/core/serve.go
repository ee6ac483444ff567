package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// Directive kinds broadcast from the communicating thread to the others.
const (
	directiveCall byte = iota
	directiveStop
)

// Serve processes requests until an operation handler returns ErrStopServing
// or Close is called on thread 0. It must be called collectively by all the
// computing threads of the object — this is the paper's requirement that a
// request be "delivered to all the computing threads". Serve returns nil on
// an orderly stop.
func (o *Object) Serve() error {
	for {
		proceed, err := o.Poll(true)
		if err != nil {
			return err
		}
		if !proceed {
			return nil
		}
	}
}

// Poll processes at most one pending request, collectively. With block set
// it waits for a request (or stop); without it, it returns immediately when
// no request is queued — this is the hook that lets a busy server
// "interrupt its computation in order to process outstanding requests"
// (paper §2.1). The boolean result reports whether serving should continue.
func (o *Object) Poll(block bool) (bool, error) {
	if o.comm.Rank() == 0 {
		var call *pendingCall
		if block {
			// Priority select: requests already queued drain before a pending
			// resize ticket is honored, so in-flight collectives complete in
			// the old epoch (the quiesce phase sheds new arrivals upstream).
			select {
			case call = <-o.queue:
			default:
				select {
				case call = <-o.queue:
				case t := <-o.resizeCh:
					return o.serveResize(t)
				case <-o.stop:
				}
			}
		} else {
			select {
			case call = <-o.queue:
			case t := <-o.resizeCh:
				return o.serveResize(t)
			case <-o.stop:
			default:
			}
		}
		if call == nil {
			// Either stopping, or a non-blocking poll found nothing.
			stopping := false
			select {
			case <-o.stop:
				stopping = true
			default:
			}
			if !block && !stopping {
				// Tell the other threads there is nothing to do. A "none"
				// verdict reuses the stop directive space with a third value.
				if _, err := o.comm.Bcast(0, directiveNoneMsg); err != nil {
					return false, err
				}
				return true, nil
			}
			if _, err := o.comm.Bcast(0, directiveStopMsg); err != nil {
				return false, err
			}
			return false, nil
		}
		if o.rec != nil && call.enqueuedNS != 0 {
			o.rec.Record(obs.Span{Trace: uint64(call.token), Phase: obs.PhaseQueue, Rank: 0,
				Start: call.enqueuedNS, Dur: time.Now().UnixNano() - call.enqueuedNS})
		}
		// Broadcast the call to every thread.
		e := cdr.NewEncoder(cdr.NativeOrder)
		e.WriteOctet(directiveCall)
		call.header.encode(e)
		if _, err := o.comm.Bcast(0, e.Bytes()); err != nil {
			call.replyCh <- callResult{err: &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}}
			return false, err
		}
		reply, stop, err := o.processCall(call.header)
		call.replyCh <- callResult{reply: reply, err: err}
		// Agree on whether to continue.
		verdict := 0
		if stop {
			verdict = 1
		}
		if _, err := o.comm.Bcast(0, verdictMsgs[verdict]); err != nil {
			return false, err
		}
		return !stop, nil
	}

	// Non-communicating threads follow thread 0's directives.
	dir, err := o.comm.Bcast(0, nil)
	if err != nil {
		return false, err
	}
	if len(dir) == 0 {
		return false, fmt.Errorf("%w: empty directive", ErrBadHeader)
	}
	switch dir[0] {
	case directiveStop:
		return false, nil
	case directiveNone:
		return true, nil
	case directiveResize:
		agreed := agreeError(o.comm, o.callResizeHook())
		_ = agreed // thread 0 reports the agreed outcome to the controller
		verdict, err := o.comm.Bcast(0, nil)
		if err != nil {
			return false, err
		}
		if len(verdict) == 1 && verdict[0] == 1 {
			// Snapshot committed: this epoch retires and Serve returns nil.
			return false, nil
		}
		// Aborted: resume serving in the old epoch.
		return true, nil
	case directiveCall:
		d := cdr.NewDecoder(dir, cdr.NativeOrder)
		if _, err := d.ReadOctet(); err != nil {
			return false, err
		}
		hdr, err := decodeInvocationHeader(d)
		if err != nil {
			return false, err
		}
		if _, _, err := o.processCall(hdr); err != nil {
			// Handler errors are reported through thread 0's reply; other
			// threads keep serving.
			_ = err
		}
		verdict, err := o.comm.Bcast(0, nil)
		if err != nil {
			return false, err
		}
		if len(verdict) == 1 && verdict[0] == 1 {
			return false, nil
		}
		return true, nil
	default:
		return false, fmt.Errorf("%w: directive %d", ErrBadHeader, dir[0])
	}
}

const directiveNone byte = 2

// directiveResize tells the computing threads to snapshot their live state
// for a membership change: each runs its onResize hook, the outcome is
// agreed collectively, and thread 0's follow-up verdict broadcast either
// retires the epoch (1: Serve returns nil everywhere) or resumes it (0: the
// resize aborted upstream and serving continues).
const directiveResize byte = 3

// Shared one-byte directive and verdict messages: the broadcast payloads are
// read-only everywhere, so every Poll round reuses these instead of
// allocating fresh single-byte slices.
var (
	directiveNoneMsg   = []byte{directiveNone}
	directiveStopMsg   = []byte{directiveStop}
	directiveResizeMsg = []byte{directiveResize}
	verdictMsgs        = [2][]byte{{0}, {1}}
)

// resizeTicket is the controller's handle on one in-loop resize: the serving
// loop reports the collectively-agreed snapshot outcome on snapDone, then
// blocks until the controller decides on commit (true retires the epoch,
// false resumes it).
type resizeTicket struct {
	snapDone chan error
	commit   chan bool
}

// callResizeHook runs this thread's snapshot callback, guarding against a
// resize directive reaching an object without elastic wiring.
func (o *Object) callResizeHook() error {
	if o.onResize == nil {
		return &orb.SystemException{RepoID: orb.RepoInternal, Message: "core: resize directive on non-elastic object"}
	}
	return o.onResize()
}

// serveResize is thread 0's side of the resize directive: broadcast it, run
// the collective snapshot, report the agreed outcome to the controller, and
// relay the controller's commit decision as the verdict. The boolean result
// mirrors Poll's: false when the epoch retired.
func (o *Object) serveResize(t *resizeTicket) (bool, error) {
	if _, err := o.comm.Bcast(0, directiveResizeMsg); err != nil {
		t.snapDone <- err
		return false, err
	}
	agreed := agreeError(o.comm, o.callResizeHook())
	t.snapDone <- agreed
	retire := <-t.commit
	verdict := 0
	if retire {
		verdict = 1
	}
	if _, err := o.comm.Bcast(0, verdictMsgs[verdict]); err != nil {
		return false, err
	}
	return !retire, nil
}

// processCall runs one collective invocation on this computing thread. The
// returned reply bytes are meaningful on thread 0 only; stop reports whether
// the handler requested an orderly shutdown.
func (o *Object) processCall(h *invocationHeader) (reply []byte, stop bool, err error) {
	op := o.ops[h.Op] // validated on thread 0 before broadcast
	if op == nil {
		return nil, false, orb.BadOperation(h.Op)
	}
	me := o.comm.Rank()

	// Build the server-side argument sequences; lengths doubles as the
	// request leg's (-1: Out, which does not travel on it).
	lengths := make([]int, len(h.Args))
	for i, a := range h.Args {
		if a.Dir == Out {
			lengths[i] = -1
		} else {
			lengths[i] = a.Layout.Length
		}
	}
	args, err := op.NewArgs(o.comm, lengths)
	if err != nil {
		return nil, false, &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}
	}
	if len(args) != len(h.Args) {
		return nil, false, &orb.SystemException{
			RepoID:  orb.RepoInternal,
			Message: fmt.Sprintf("NewArgs built %d sequences for %d args", len(args), len(h.Args)),
		}
	}

	// Buckets exist to accumulate framed transfers (plus multi-port
	// attachments); an inline call carries its data in the request, so it
	// skips the bucket (and its buffered channel) entirely. dropBucket still
	// runs in case a stray Data message created one for this token.
	multi := h.Method == Multiport
	var bucket *dataBucket
	var frames chan *wire.Data
	if multi || h.Streamed {
		bucket = o.bucket(h.Token)
		frames = bucket.ch
	}
	defer o.dropBucket(h.Token)

	// Receive the In/InOut argument data. Failures are captured, not
	// returned: every thread must reach the agreement below so a client
	// that died mid-transfer (this thread's receive timed out) fails the
	// upcall coherently everywhere instead of wedging the collective loop.
	recvStart := time.Now()
	recvErr := func() error {
		req := leg{token: h.Token, seqs: args, me: me}
		switch {
		case multi:
			for i, a := range h.Args {
				if a.Dir == Out {
					continue
				}
				var err error
				if req.pieces, err = planMoves(req.pieces, i, a.Layout, args[i].Layout(), me, false); err != nil {
					return err
				}
			}
		case h.Streamed:
			req.comm, req.pieces, req.rec = o.comm, chunkPieces(lengths, int(h.ChunkElems)), o.rec
		default:
			req.comm, req.pieces, req.inline = o.comm, chunkPieces(lengths, 0), make([][]byte, len(h.Args))
			for i, a := range h.Args {
				req.inline[i] = a.Data
			}
		}
		return req.recv(frames, o.stop, o.opts.DataTimeout)
	}()
	o.span(h.Token, obs.PhaseRecvXfer, recvStart)
	if agreed := agreeError(o.comm, sysErr(orb.RepoMarshal, recvErr)); agreed != nil {
		// No thread runs the handler; thread 0 replies with the agreed
		// error and serving continues.
		return nil, false, agreed
	}

	// The collective upcall. The scalar-results encoder is per-object
	// scratch: rh.encode copies its bytes into the reply stream before the
	// next invocation can reset it.
	if o.outScratch == nil {
		o.outScratch = orb.NewArgEncoder()
	} else {
		orb.ResetArgEncoder(o.outScratch)
	}
	out := o.outScratch
	upcallStart := time.Now()
	herr := func() error {
		scalars, err := orb.ArgDecoder(h.Scalars)
		if err != nil {
			return orb.Marshal(err)
		}
		call := &ServerCall{Comm: o.comm, Op: h.Op, In: scalars, Out: out, Args: args}
		return safeInvoke(op.Handler, call)
	}()
	o.span(h.Token, obs.PhaseUpcall, upcallStart)
	if herr != nil && errors.Is(herr, ErrStopServing) {
		stop = true
		herr = nil
	}
	// Synchronize after the invocation (the paper's post-invocation
	// synchronization of the server's computing threads), fused with error
	// agreement: a handler failure on any thread — previously invisible to
	// the client unless it was thread 0's — fails the upcall everywhere.
	if agreed := agreeError(o.comm, herr); agreed != nil {
		return nil, stop, agreed
	}

	// Return the Out/InOut argument data. A streamed reply leg's chunks are
	// written before the Reply is encoded, so same-connection ordering
	// guarantees the client holds every chunk once it sees the Reply; the
	// reply chunk size is recomputed from the final result lengths exactly
	// as the client will.
	sendStart := time.Now()
	rh := &replyHeader{Scalars: out.Bytes(), Args: make([]replyArg, len(h.Args))}
	sendErr := func() error {
		rep := leg{token: h.Token, reply: true, seqs: args, me: me}
		lens := make([]int, len(h.Args))
		for i, a := range h.Args {
			rh.Args[i] = replyArg{Dir: a.Dir, Length: args[i].Len()}
			lens[i] = -1
			if a.Dir == In {
				continue
			}
			if a.Dir == InOut && args[i].Len() != a.Layout.Length {
				return &orb.SystemException{
					RepoID:  orb.RepoMarshal,
					Message: fmt.Sprintf("handler resized inout arg %d from %d to %d", i, a.Layout.Length, args[i].Len()),
				}
			}
			lens[i] = args[i].Len()
			if multi {
				// Plan toward the client's final layout for this argument.
				cl, err := a.Layout, error(nil)
				if a.Dir == Out {
					cl, err = a.Spec.Layout(lens[i], h.ClientRanks)
				}
				if err == nil {
					rep.pieces, err = planMoves(rep.pieces, i, args[i].Layout(), cl, me, true)
				}
				if err != nil {
					return sysErr(orb.RepoMarshal, err)
				}
			}
		}
		switch {
		case h.Streamed:
			mask, err := o.replyMask(bucket)
			if err != nil {
				return err
			}
			ce := chunkElemsFor(int(h.ChunkElems), lens)
			rep.comm, rep.pieces, rep.mask, rep.rec = o.comm, chunkPieces(lens, ce), mask, o.rec
		case !multi:
			rep.comm, rep.pieces, rep.inline = o.comm, chunkPieces(lens, 0), make([][]byte, len(h.Args))
			_, err := rep.send(nil)
			for i, p := range rep.inline {
				rh.Args[i].Data = p
			}
			return sysErr(orb.RepoComm, err)
		}
		_, err := rep.send(func(d *wire.Data) error {
			c, err := bucket.conn(int(d.DstRank), o.stop, attachTimeout)
			if err != nil {
				return err
			}
			return c.WriteMessage(d)
		})
		return sysErr(orb.RepoComm, err)
	}()
	o.span(h.Token, obs.PhaseSendXfer, sendStart)
	if agreed := agreeError(o.comm, sendErr); agreed != nil {
		return nil, stop, agreed
	}

	if me == 0 {
		e := orb.NewArgEncoder()
		rh.encode(e, h.Method, h.Streamed)
		reply = e.Bytes()
	}
	return reply, stop, nil
}

// replyMask agrees on a streamed reply leg's compression mask: the request
// arrived on the connection the reply chunks leave on, so thread 0 reads the
// mask its adapter negotiated during the handshake and shares it before the
// first collective marshal. Deterministically skipped (on every thread — the
// options are replicated) when the object never accepts offers, so the raw
// engine's collective schedule is untouched.
func (o *Object) replyMask(bucket *dataBucket) (uint8, error) {
	if o.opts.Server.Compression == 0 {
		return 0, nil
	}
	var mb []byte
	if o.comm.Rank() == 0 {
		// A missing attachment resolves to raw here; the send loop's own
		// connection lookup reports the failure through the usual path.
		mask := uint8(0)
		if c, err := bucket.conn(0, o.stop, attachTimeout); err == nil {
			mask, _ = c.Compression()
			// Under Auto the estimator can veto the negotiated codec for
			// this reply leg: on a connection we can write faster than we
			// can encode, raw wins.
			if mask != 0 && o.opts.Server.CompressionPolicy == zcodec.PolicyAuto && !compressionWins(c.WriteBandwidth()) {
				mask = 0
				o.compSkipped.Inc()
			}
		}
		mb = []byte{mask}
	}
	mb, err := o.comm.Bcast(0, mb)
	if err != nil {
		return 0, &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}
	}
	if len(mb) != 1 {
		return 0, nil
	}
	return mb[0], nil
}

// safeInvoke contains handler panics.
func safeInvoke(h func(*ServerCall) error, call *ServerCall) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &orb.SystemException{RepoID: orb.RepoInternal, Message: fmt.Sprint("handler panic: ", p)}
		}
	}()
	return h(call)
}
