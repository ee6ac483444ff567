package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// Timing records where a blocking invocation spent its time, as observed by
// the calling thread (the paper's Tables 1 and 2 report the analogous
// server- and client-side phases measured on dedicated hardware; the
// discrete-event models in internal/exp reproduce that full breakdown).
type Timing struct {
	Total time.Duration
	// Gather is the time spent collecting distributed arguments at the
	// communicating thread (centralized method only).
	Gather time.Duration
	// Scatter is the time spent distributing results from the
	// communicating thread (centralized method only).
	Scatter time.Duration
	// Pack is the time spent marshalling this thread's chunks (multi-port)
	// or the full argument payload (centralized, thread 0).
	Pack time.Duration
	// SendRecv spans the remote exchange: request out to reply in.
	SendRecv time.Duration
	// Unpack is the time spent storing inbound result chunks (multi-port).
	Unpack time.Duration
	// Barrier is the post-invocation synchronization (multi-port).
	Barrier time.Duration
}

// span records one phase of invocation token as observed by this thread.
// The token doubles as the trace id: it is what the wire-level trace-context
// extension carries, so client and server spans of one invocation share a key.
func (b *Binding) span(token uint32, ph obs.Phase, start time.Time) {
	if b.rec == nil {
		return
	}
	b.rec.Record(obs.Span{Trace: uint64(token), Phase: ph, Rank: int32(b.comm.Rank()),
		Start: start.UnixNano(), Dur: int64(time.Since(start))})
}

// spanDur is span for phases whose duration is accumulated piecewise (the
// multi-port pack time) rather than spanning one contiguous interval.
func (b *Binding) spanDur(token uint32, ph obs.Phase, start time.Time, dur time.Duration) {
	if b.rec == nil {
		return
	}
	b.rec.Record(obs.Span{Trace: uint64(token), Phase: ph, Rank: int32(b.comm.Rank()),
		Start: start.UnixNano(), Dur: int64(dur)})
}

// spanShard is span carrying the 1-based shard attribute: which shard group
// served the phase (0 when the invocation was not shard-routed).
func (b *Binding) spanShard(token uint32, ph obs.Phase, start time.Time, shard int32) {
	if b.rec == nil {
		return
	}
	b.rec.Record(obs.Span{Trace: uint64(token), Phase: ph, Rank: int32(b.comm.Rank()),
		Start: start.UnixNano(), Dur: int64(time.Since(start)), Shard: shard})
}

// wireInvoke performs rank 0's request/reply exchange for one invocation,
// shard-routing it when the binding has sharding enabled and the invocation
// carries a shard key. It returns the reply payload and the 1-based index of
// the shard that served (0 when the primary-first path handled it).
func (b *Binding) wireInvoke(op string, payload, shardKey []byte) ([]byte, int32, error) {
	if b.sharding.Enabled && len(shardKey) > 0 {
		out, idx, err := b.client.InvokeSharded(b.ref, op, payload, orb.InvokeOptions{
			ShardKey: shardKey, Idempotent: b.sharding.Idempotent,
		})
		return out, int32(idx) + 1, err
	}
	out, err := b.client.Invoke(b.ref, op, payload, false)
	return out, 0, err
}

// tokenCounter seeds invocation tokens; the random base makes collisions
// between concurrent client processes unlikely.
var tokenCounter atomic.Uint32

func init() {
	tokenCounter.Store(rand.Uint32())
}

// Invoke performs a blocking collective invocation using the binding's
// default transfer method. scalars is the marshalled non-distributed
// argument payload (build it with ScalarEncoder); args lists the distributed
// arguments in the operation's declaration order. It returns the reply's
// scalar payload (open it with ScalarDecoder). All threads of the binding
// must call Invoke with equal scalar payloads and compatible sequences.
func (b *Binding) Invoke(op string, scalars []byte, args []DistArg) ([]byte, error) {
	return b.InvokeMethod(b.method, op, scalars, args, nil)
}

// InvokeSharded is Invoke routed by consistent hash of shardKey across the
// shard groups behind the binding's reference (BindOptions.Sharding must be
// enabled, and the transfer method must be centralized — a shard owns all
// its endpoints, so multi-port flows cannot straddle the routing decision).
// Every SPMD thread must pass the same shardKey; only the communicating
// thread consults it. Derive key-range keys with shard.RangeKey.
func (b *Binding) InvokeSharded(op string, shardKey, scalars []byte, args []DistArg) ([]byte, error) {
	ln, err := b.acquireLane()
	if err != nil {
		return nil, err
	}
	defer b.releaseLane(ln)
	return b.invoke(ln, b.method, op, shardKey, scalars, args, nil)
}

// InvokeMethod is Invoke with an explicit transfer method and optional
// timing collection.
func (b *Binding) InvokeMethod(method Method, op string, scalars []byte, args []DistArg, timing *Timing) ([]byte, error) {
	ln, err := b.acquireLane()
	if err != nil {
		return nil, err
	}
	defer b.releaseLane(ln)
	return b.invoke(ln, method, op, nil, scalars, args, timing)
}

// invoke runs one collective invocation on the given lane. Every collective
// in the invocation (token agreement, gathers/scatters, meta share, error
// agreement) rides the lane's communicator, so invocations on different
// lanes overlap without their traffic interleaving.
func (b *Binding) invoke(ln *bindLane, method Method, op string, shardKey, scalars []byte, args []DistArg, timing *Timing) ([]byte, error) {
	comm := ln.comm
	start := time.Now()
	var scratch Timing
	if timing == nil {
		timing = &scratch
	}
	*timing = Timing{}
	defer func() { timing.Total = time.Since(start) }()
	desc, ok := b.ops[op]
	if !ok {
		return nil, fmt.Errorf("%w: unknown operation %q", ErrArgMismatch, op)
	}
	if len(args) != len(desc.Args) {
		return nil, fmt.Errorf("%w: %s takes %d distributed args, got %d", ErrArgMismatch, op, len(desc.Args), len(args))
	}
	for i, a := range args {
		if a.Seq == nil {
			return nil, fmt.Errorf("%w: arg %d is nil", ErrArgMismatch, i)
		}
		if a.Dir != desc.Args[i].Dir {
			return nil, fmt.Errorf("%w: arg %d is %v, want %v", ErrArgMismatch, i, a.Dir, desc.Args[i].Dir)
		}
		if a.Seq.ElemName() != desc.Args[i].Elem {
			return nil, fmt.Errorf("%w: arg %d has element type %q, want %q", ErrArgMismatch, i, a.Seq.ElemName(), desc.Args[i].Elem)
		}
	}
	if method == Multiport && !b.ref.Multiport() {
		return nil, ErrNoMultiport
	}
	if len(shardKey) > 0 && method != Centralized {
		// A shard is a whole server group: multi-port data flows target the
		// endpoints of one profile, so the transfer method cannot straddle
		// the per-invocation routing decision. (Uniform across threads —
		// every thread passes the same shardKey and method.)
		return nil, ErrShardMethod
	}

	// Agree on the invocation token.
	var tokenBytes []byte
	if comm.Rank() == 0 {
		e := cdr.NewEncoder(cdr.NativeOrder)
		e.WriteULong(tokenCounter.Add(1))
		tokenBytes = e.Bytes()
	}
	tokenBytes, err := comm.Bcast(0, tokenBytes)
	if err != nil {
		return nil, err
	}
	token, err := cdr.NewDecoder(tokenBytes, cdr.NativeOrder).ReadULong()
	if err != nil {
		return nil, err
	}
	defer b.span(token, obs.PhaseInvoke, start)

	if method != Centralized && method != Multiport {
		return nil, fmt.Errorf("core: unknown method %v", method)
	}
	return b.transfer(comm, token, method, op, shardKey, scalars, args, desc, timing)
}

// transfer runs one invocation's request and reply legs through the leg
// executor (xfer.go): the paper's §3.2 centralized client side (gather and
// marshal at the communicating thread, one request, scatter the results) and
// its §3.3 multi-port side (the header travels centrally and alone, the data
// flows directly between the owning threads, and the threads synchronize
// after the invocation) are the same skeleton over different legs.
//
// A large centralized invocation streams: its request leg is chunked behind
// the header, overlapping collective gathers with the wire. A shard-routed
// one never does — chunk Data messages go to the primary profile's
// endpoints, while the request itself follows the ring — so it, like any
// small one, carries its data inline.
//
// The skeleton is collective: every thread executes the same collectives no
// matter where its local work fails. Local failures are captured and fed
// into the agreements instead of returned early, so a thread whose data
// connection was cut mid-frame cannot strand the others in a collective
// they entered and it skipped. The inline carrier has no agreement before
// shareMeta: its request leg fails alike on every thread.
func (b *Binding) transfer(comm *rts.Comm, token uint32, method Method, op string, shardKey, scalars []byte, args []DistArg, desc OpDesc, timing *Timing) ([]byte, error) {
	me := comm.Rank()
	multi := method == Multiport
	streamed := !multi && len(shardKey) == 0 && b.streamEligible(args)
	inline := !multi && !streamed
	h := &invocationHeader{
		Op: op, Method: method, Streamed: streamed, Token: token,
		ClientRanks: comm.Size(), Epoch: b.refEpoch, Scalars: scalars,
		Args: make([]headerArg, len(args)),
	}
	seqs := make([]dseq.Transferable, len(args))
	lens := make([]int, len(args)) // request-leg lengths; -1: Out
	for i, a := range args {
		seqs[i] = a.Seq
		h.Args[i] = headerArg{Dir: a.Dir, Elem: a.Seq.ElemName()}
		lens[i] = -1
		if a.Dir == Out {
			h.Args[i].Spec = a.Seq.Spec()
		} else {
			h.Args[i].Layout = a.Seq.Layout()
			lens[i] = a.Seq.Len()
		}
	}

	req := leg{token: token, seqs: seqs, me: me}
	var attach []int
	var localErr error
	switch {
	case multi:
		req.pieces, attach, localErr = b.forwardPlan(args, desc, me)
	case inline:
		req.comm, req.pieces, req.inline = comm, chunkPieces(lens, 0), make([][]byte, len(args))
	default:
		ce := chunkElemsFor(b.chunkElems, lens)
		h.ChunkElems = uint32(ce)
		req.comm, req.pieces, req.rec = comm, chunkPieces(lens, ce), b.rec
		mask, err := b.streamMask(comm)
		if err != nil {
			return nil, err
		}
		req.mask = mask
	}
	var sink chan *wire.Data
	if !inline && (multi || me == 0) {
		sink = make(chan *wire.Data, bucketCapacity)
		b.client.RegisterDataSink(token, sink)
		defer func() {
			b.client.UnregisterDataSink(token)
			drainData(sink)
		}()
	}

	// request encodes the header at the communicating thread; exchange
	// sends it and collects the outcome there.
	request := func() []byte {
		packStart := time.Now()
		e := orb.NewArgEncoder()
		h.encode(e)
		if !multi {
			timing.Pack = time.Since(packStart)
			b.span(token, obs.PhasePack, packStart)
		}
		return e.Bytes()
	}
	var meta invokeMeta
	var served int32
	exchange := func(payload []byte) {
		reply, s, err := b.wireInvoke(op, payload, shardKey)
		served, meta = s, metaFromReply(reply, err, method, streamed)
	}
	sendStart := time.Now()
	if inline {
		// The request leg gathers each argument whole at the communicating
		// thread, where the payloads join the header.
		_, err := req.send(nil)
		timing.Gather = time.Since(sendStart)
		b.span(token, obs.PhaseGather, sendStart)
		if err != nil {
			return nil, err
		}
		if me == 0 {
			for i, p := range req.inline {
				h.Args[i].Data = p
			}
			payload := request()
			rrStart := time.Now()
			exchange(payload)
			timing.SendRecv = time.Since(rrStart)
			b.spanShard(token, obs.PhaseSendRecv, rrStart, served)
		}
		if err := shareMeta(comm, &meta); err != nil {
			return nil, err
		}
		if meta.err != nil {
			return nil, meta.err
		}
	} else {
		// The communicating thread launches the request first, so the header
		// travels ahead of the data (the server buffers early Data frames
		// per token either way) and concurrent clients contend only there.
		done := make(chan struct{})
		launched := me == 0 && localErr == nil
		if launched {
			payload := request()
			go func() {
				exchange(payload)
				close(done)
			}()
		}
		for _, r := range attach {
			if localErr != nil {
				break
			}
			if err := b.client.SendData(b.ref, &wire.Data{RequestID: token, SrcRank: uint32(me), DstRank: uint32(r)}); err != nil {
				localErr = commFailure(err)
			}
		}
		if localErr == nil {
			var marshal time.Duration
			marshal, localErr = req.send(func(d *wire.Data) error { return b.client.SendData(b.ref, d) })
			if multi {
				timing.Pack = marshal
				b.spanDur(token, obs.PhasePack, sendStart, marshal)
			} else {
				timing.Gather = marshal
				b.spanDur(token, obs.PhaseGather, sendStart, marshal)
			}
		}
		// The communicating thread collects the reply (bounded by the client
		// timeout even when another thread's sends failed and the server
		// never answers); everyone shares it, then agrees on the request leg.
		if launched {
			<-done
		}
		timing.SendRecv = time.Since(sendStart)
		b.span(token, obs.PhaseSendRecv, sendStart)
		if err := shareMeta(comm, &meta); err != nil {
			return nil, err
		}
		if localErr == nil {
			localErr = meta.err
		}
		if agreed := agreeError(comm, localErr); agreed != nil {
			return nil, agreed
		}
	}

	// Reply leg. A streamed server wrote every reply chunk before the Reply
	// on the same connection, so by now they are in (or streaming into) the
	// sink in schedule order; the reply chunk size is recomputed from the
	// result lengths exactly as the server did.
	rep := leg{token: token, reply: true, seqs: seqs, me: me}
	recvStart := time.Now()
	recvErr := func() error {
		if len(meta.lengths) != len(args) {
			return fmt.Errorf("%w: reply carries %d args, want %d", ErrBadHeader, len(meta.lengths), len(args))
		}
		for i, a := range args {
			lens[i] = -1
			switch {
			case a.Dir == In:
				continue
			case a.Dir == Out:
				if err := a.Seq.ResizeAlloc(meta.lengths[i]); err != nil {
					return err
				}
			case meta.lengths[i] != a.Seq.Len():
				return fmt.Errorf("%w: inout arg %d length %d from server, have %d", ErrBadHeader, i, meta.lengths[i], a.Seq.Len())
			}
			lens[i] = meta.lengths[i]
			if multi {
				sl, err := desc.Args[i].specOrBlock().Layout(lens[i], b.ref.Threads)
				if err != nil {
					return err
				}
				if rep.pieces, err = planMoves(rep.pieces, i, sl, a.Seq.Layout(), me, false); err != nil {
					return err
				}
			}
		}
		switch {
		case inline:
			rep.comm, rep.pieces, rep.inline = comm, chunkPieces(lens, 0), meta.datas
		case !multi:
			rep.comm, rep.pieces, rep.rec = comm, chunkPieces(lens, chunkElemsFor(int(h.ChunkElems), lens)), b.rec
		}
		return rep.recv(sink, nil, b.client.Timeout)
	}()
	if multi {
		timing.Unpack = time.Since(recvStart)
		b.span(token, obs.PhaseUnpack, recvStart)
	} else {
		timing.Scatter = time.Since(recvStart)
		b.span(token, obs.PhaseScatter, recvStart)
	}

	// The closing agreement turns any thread-local failure into one error
	// seen identically everywhere; under multi-port it is also the
	// post-invocation synchronization (the t_barrier of Table 2).
	barrierStart := time.Now()
	agreed := agreeError(comm, recvErr)
	if multi {
		timing.Barrier = time.Since(barrierStart)
		b.span(token, obs.PhaseBarrier, barrierStart)
	}
	if agreed != nil {
		return nil, agreed
	}
	return meta.scalars, nil
}

// forwardPlan plans a multi-port request leg: this thread's moves to the
// server threads, plus the server threads it must attach to — those owing it
// return flows that it does not already send to, so they can reach it.
func (b *Binding) forwardPlan(args []DistArg, desc OpDesc, me int) ([]piece, []int, error) {
	sRanks := b.ref.Threads
	sends := make([]bool, sRanks)
	owes := make([]bool, sRanks)
	var ps []piece
	for i, a := range args {
		if a.Dir == Out {
			// The result length is unknown; conservatively attach to every
			// server thread so any of them can reach us.
			for r := range owes {
				owes[r] = true
			}
			continue
		}
		sl, err := desc.Args[i].specOrBlock().Layout(a.Seq.Len(), sRanks)
		if err != nil {
			return nil, nil, err
		}
		n := len(ps)
		if ps, err = planMoves(ps, i, a.Seq.Layout(), sl, me, true); err != nil {
			return nil, nil, err
		}
		for _, p := range ps[n:] {
			sends[p.DstRank] = true
		}
		if a.Dir == InOut {
			back, err := planMoves(nil, i, sl, a.Seq.Layout(), me, false)
			if err != nil {
				return nil, nil, err
			}
			for _, p := range back {
				owes[p.SrcRank] = true
			}
		}
	}
	var attach []int
	for r := range owes {
		if owes[r] && !sends[r] {
			attach = append(attach, r)
		}
	}
	return ps, attach, nil
}

// streamEligible decides whether a centralized invocation streams. The
// decision is a pure function of the binding options and the arguments'
// global lengths, so every SPMD thread decides identically without
// communicating: at least one In/InOut argument must be large enough (two
// chunks) for the overlap to pay.
func (b *Binding) streamEligible(args []DistArg) bool {
	for _, a := range args {
		if a.Dir != Out && a.Seq.Len() >= 2*b.chunkElems {
			return true
		}
	}
	return false
}

// streamMask agrees on the compression mask for one streamed invocation:
// thread 0 resolves the connection's negotiated mask (running the handshake
// on first use) and shares it, so every thread feeds the collective chunk
// marshalling the same mask. With compression off on the binding there is
// nothing to agree on — the collective schedule is exactly the raw engine's.
func (b *Binding) streamMask(comm *rts.Comm) (uint8, error) {
	if b.comp == 0 {
		return 0, nil
	}
	var mb []byte
	if comm.Rank() == 0 {
		wait := b.client.Timeout
		if wait <= 0 || wait > 5*time.Second {
			wait = 5 * time.Second
		}
		m := b.client.NegotiatedCompression(b.ref, wait) & b.comp
		// Under Auto the estimator can veto a negotiated codec for this
		// invocation: on a link faster than we can encode, raw wins. The
		// decision is made once, at the same single point the mask is
		// resolved, and broadcast — so the collective schedule stays
		// deterministic across threads.
		if m != 0 && b.policy == zcodec.PolicyAuto && !compressionWins(b.client.WireBandwidth(b.ref)) {
			m = 0
			b.compSkipped.Inc()
		}
		mb = []byte{m}
	}
	mb, err := comm.Bcast(0, mb)
	if err != nil {
		return 0, err
	}
	if len(mb) != 1 {
		return 0, fmt.Errorf("%w: compression mask agreement", ErrBadHeader)
	}
	return mb[0], nil
}

// agreeError merges per-thread outcomes into one collective verdict: every
// thread contributes its local error (nil when clean) and all threads
// return the same agreed error, the lowest failing rank's. The
// gather+broadcast doubles as a synchronization point, which is what lets
// the invocation and upcall paths replace bare barriers with it: a faulted
// thread reports instead of disappearing, so no thread waits on a
// collective its peers will never enter.
// okOutcome is the pre-encoded "no error" outcome (encodeMetaErr of nil is
// the single metaOK octet). Agreements run several times per upcall on every
// thread, almost always on clean outcomes, so the success path shares these
// read-only bytes instead of encoding and decoding each time.
var okOutcome = []byte{metaOK}

func isOKOutcome(p []byte) bool { return len(p) == 1 && p[0] == metaOK }

func agreeError(comm *rts.Comm, local error) error {
	contrib := okOutcome
	if local != nil {
		e := cdr.NewEncoder(cdr.NativeOrder)
		encodeMetaErr(e, local)
		contrib = e.Bytes()
	}
	all, err := comm.Gather(0, contrib)
	if err != nil {
		return err
	}
	var payload []byte
	if comm.Rank() == 0 {
		var chosen error
		for r, p := range all {
			if isOKOutcome(p) {
				continue
			}
			rerr, derr := decodeMetaErr(cdr.NewDecoder(p, cdr.NativeOrder))
			if derr != nil {
				// Never return early here: the other threads are already
				// waiting in the broadcast below.
				rerr = fmt.Errorf("core: thread %d outcome undecodable: %v", r, derr)
			}
			if chosen == nil && rerr != nil {
				chosen = rerr
			}
		}
		if chosen == nil {
			payload = okOutcome
		} else {
			ec := cdr.NewEncoder(cdr.NativeOrder)
			encodeMetaErr(ec, chosen)
			payload = ec.Bytes()
		}
	}
	payload, err = comm.Bcast(0, payload)
	if err != nil {
		return err
	}
	if isOKOutcome(payload) {
		return nil
	}
	agreed, derr := decodeMetaErr(cdr.NewDecoder(payload, cdr.NativeOrder))
	if derr != nil {
		return derr
	}
	return agreed
}

// invokeMeta is the invocation outcome the communicating thread shares with
// the others.
type invokeMeta struct {
	err     error
	scalars []byte
	lengths []int
	datas   [][]byte // centralized only; not broadcast (thread 0 scatters)
}

func metaFromReply(payload []byte, err error, method Method, streamed bool) invokeMeta {
	if err != nil {
		return invokeMeta{err: err}
	}
	d, derr := orb.ArgDecoder(payload)
	if derr != nil {
		return invokeMeta{err: derr}
	}
	rh, derr := decodeReplyHeader(d, method, streamed)
	if derr != nil {
		return invokeMeta{err: derr}
	}
	m := invokeMeta{scalars: rh.Scalars, lengths: make([]int, len(rh.Args)), datas: make([][]byte, len(rh.Args))}
	for i, a := range rh.Args {
		m.lengths[i] = a.Length
		m.datas[i] = a.Data
	}
	return m
}

// shareMeta broadcasts thread 0's invocation outcome (status, scalar
// results, result lengths) to all threads over the invocation's lane
// communicator. The centralized data payloads stay at thread 0, which
// scatters them.
func shareMeta(comm *rts.Comm, m *invokeMeta) error {
	var payload []byte
	if comm.Rank() == 0 {
		e := cdr.NewEncoder(cdr.NativeOrder)
		encodeMetaErr(e, m.err)
		e.WriteOctets(m.scalars)
		e.WriteULong(uint32(len(m.lengths)))
		for _, l := range m.lengths {
			e.WriteULongLong(uint64(l))
		}
		payload = e.Bytes()
	}
	payload, err := comm.Bcast(0, payload)
	if err != nil {
		return err
	}
	if comm.Rank() == 0 {
		return nil
	}
	d := cdr.NewDecoder(payload, cdr.NativeOrder)
	m.err, err = decodeMetaErr(d)
	if err != nil {
		return err
	}
	if m.scalars, err = d.ReadOctets(); err != nil {
		return err
	}
	n, err := d.ReadULong()
	if err != nil {
		return err
	}
	m.lengths = make([]int, n)
	m.datas = make([][]byte, n)
	for i := range m.lengths {
		l, err := d.ReadULongLong()
		if err != nil {
			return err
		}
		m.lengths[i] = int(l)
	}
	return nil
}

// Error kinds shared between threads.
const (
	metaOK byte = iota
	metaUserExc
	metaSystemExc
	metaPlain
)

func encodeMetaErr(e *cdr.Encoder, err error) {
	if err == nil {
		e.WriteOctet(metaOK)
		return
	}
	var ue *orb.UserException
	if errors.As(err, &ue) {
		e.WriteOctet(metaUserExc)
		e.WriteString(ue.RepoID)
		e.WriteString(ue.Message)
		e.WriteOctets(ue.Payload)
		return
	}
	var se *orb.SystemException
	if errors.As(err, &se) {
		e.WriteOctet(metaSystemExc)
		e.WriteString(se.RepoID)
		e.WriteULong(se.Minor)
		e.WriteString(se.Message)
		return
	}
	e.WriteOctet(metaPlain)
	e.WriteString(err.Error())
}

func decodeMetaErr(d *cdr.Decoder) (error, error) {
	kind, err := d.ReadOctet()
	if err != nil {
		return nil, err
	}
	switch kind {
	case metaOK:
		return nil, nil
	case metaUserExc:
		var ue orb.UserException
		if ue.RepoID, err = d.ReadString(); err != nil {
			return nil, err
		}
		if ue.Message, err = d.ReadString(); err != nil {
			return nil, err
		}
		if ue.Payload, err = d.ReadOctets(); err != nil {
			return nil, err
		}
		return &ue, nil
	case metaSystemExc:
		var se orb.SystemException
		if se.RepoID, err = d.ReadString(); err != nil {
			return nil, err
		}
		if se.Minor, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if se.Message, err = d.ReadString(); err != nil {
			return nil, err
		}
		return &se, nil
	case metaPlain:
		msg, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		return errors.New(msg), nil
	default:
		return nil, fmt.Errorf("%w: meta error kind %d", ErrBadHeader, kind)
	}
}
