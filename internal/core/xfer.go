package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/wire"
)

// The transfer engine. The paper's two transfer methods (§3) are one
// computation: intersect the client and server distribution templates and
// move the resulting pieces. Each direction of an invocation is a leg — a
// list of pieces — and one send loop and one receive loop run every leg:
//
//   - A collective leg (centralized) routes every piece through the
//     communicating threads. Its schedule is the global element range of each
//     argument cut into chunks; every thread joins each piece's collective
//     GatherMarshalRangeZ / ScatterUnmarshalRange at rank 0 and rank 0 alone
//     touches the wire. Both peers derive the schedule from the lengths and
//     the chunk size in the header, so no per-chunk control traffic is
//     needed, and chunk k+1 is gathered while chunk k is on the wire.
//   - A local leg (multi-port) is this thread's share of the dist.Plan
//     between the two layouts, moved with local MarshalRange /
//     UnmarshalRange directly between the owning threads.
//
// The only carrier choice: a collective leg of an invocation whose header is
// not Streamed has one whole-range piece per argument, and those payloads
// ride inline in the Request/Reply body instead of as Data frames.

// DefaultStreamChunkElems is the streamed-transfer chunk size when
// BindOptions.StreamChunkElems is not positive. 8192 doubles (64 KiB
// payloads) sit comfortably above the per-message overhead and below the
// frame limit.
const DefaultStreamChunkElems = 8192

// encodeAheadDepth bounds how many encoded chunks the pipelined send
// worker may hold ahead of the wire. Depth 2 is enough to overlap the
// encode of chunk k+1 with the write of chunk k without letting a slow
// link pile up compressed frames (and their memory) unboundedly.
const encodeAheadDepth = 2

// maxStreamChunks bounds the total number of chunks in one direction of one
// invocation; the chunk size is raised until the schedule fits. The bound
// keeps a whole reply leg inside one data sink (capacity bucketCapacity):
// reply chunks are written before the Reply message, so they may all be
// buffered before the client starts draining.
const maxStreamChunks = 1024

// attachTimeout bounds how long a return-flow sender waits for a client
// attachment that has not yet arrived.
const attachTimeout = 30 * time.Second

// chunkElemsFor returns the chunk size for a transfer leg: base elements,
// doubled until the leg's total chunk count (across all its arguments, whose
// element lengths are given; negative ones do not travel) fits
// maxStreamChunks. Both peers compute it from the same inputs, so the
// schedules agree without negotiation.
func chunkElemsFor(base int, lengths []int) int {
	ce := max(base, 1)
	for {
		total := 0
		for _, l := range lengths {
			total += chunkCount(l, ce)
		}
		if total <= maxStreamChunks {
			return ce
		}
		ce *= 2
	}
}

func chunkCount(length, ce int) int {
	if length <= 0 {
		return 0
	}
	return (length + ce - 1) / ce
}

// piece is one scheduled element range of a leg. A collective leg's pieces
// carry global offsets (SrcOff == DstOff, ranks 0); a local leg's are the
// plan's moves, with local offsets on either side.
type piece struct {
	dist.Move
	arg  int
	last bool // final chunk of its argument (a streamed chunk's Last flag)
}

// chunkPieces is a collective leg's schedule: the global range of every
// argument with a non-negative length, cut into chunks of ce elements. ce <= 0
// is the inline carrier's schedule — one whole-range piece per argument,
// empty ones included.
func chunkPieces(lens []int, ce int) []piece {
	if ce <= 0 {
		ps := make([]piece, 0, len(lens))
		for i, l := range lens {
			if l >= 0 {
				ps = append(ps, piece{Move: dist.Move{Len: l}, arg: i, last: true})
			}
		}
		return ps
	}
	n := 0
	for _, l := range lens {
		n += chunkCount(l, ce)
	}
	ps := make([]piece, 0, n)
	for i, l := range lens {
		for start := 0; start < l; start += ce {
			n := min(ce, l-start)
			ps = append(ps, piece{Move: dist.Move{SrcOff: start, DstOff: start, Len: n}, arg: i, last: start+n == l})
		}
	}
	return ps
}

// planMoves appends to ps this thread's share of arg's from→to
// redistribution: the moves it sources (send) or the ones it receives.
func planMoves(ps []piece, arg int, from, to dist.Layout, rank int, send bool) ([]piece, error) {
	moves, err := dist.Plan(from, to)
	if err != nil {
		return ps, err
	}
	var mine []dist.Move
	if send {
		mine = dist.PlanBySource(moves, from.Ranks)[rank]
	} else {
		mine = dist.PlanByDest(moves, to.Ranks)[rank]
	}
	for _, m := range mine {
		ps = append(ps, piece{Move: m, arg: arg})
	}
	return ps, nil
}

// leg is one direction of one invocation's distributed-argument data, as
// this thread takes part in it.
type leg struct {
	token  uint32
	reply  bool // server→client
	seqs   []dseq.Transferable
	pieces []piece
	me     int
	// comm is set on a collective leg: every thread runs each piece's
	// collective (un)marshal on it and rank 0 alone touches the wire. A local
	// leg (nil comm) moves its pieces between the owning threads directly.
	comm *rts.Comm
	// mask is the agreed compression codec mask (collective legs only).
	mask uint8
	// inline, when non-nil, carries the payloads per argument in the
	// Request/Reply body instead of Data frames (significant at rank 0).
	inline [][]byte
	// rec, when set, receives one chunk span per piece (streamed legs).
	rec *obs.Recorder
}

func (l *leg) span(ph obs.Phase, start time.Time, mask uint8) {
	if l.rec == nil {
		return
	}
	l.rec.Record(obs.Span{Trace: uint64(l.token), Phase: ph, Rank: int32(l.me),
		Start: start.UnixNano(), Dur: int64(time.Since(start)), Codec: int32(mask)})
}

// commFailure reports a wire failure in the control path's error taxonomy
// (COMM_FAILURE), so callers classify a dead peer the same way on every leg.
func commFailure(err error) error {
	return &orb.SystemException{RepoID: orb.RepoComm, Message: err.Error()}
}

// sysErr classifies a leg failure as a system exception of kind repo unless
// it already is one.
func sysErr(repo string, err error) error {
	var se *orb.SystemException
	if err == nil || errors.As(err, &se) {
		return err
	}
	return &orb.SystemException{RepoID: repo, Message: err.Error()}
}

// send runs the leg's send loop: marshal each piece and post it as a Data
// frame (or keep it for the body, on an inline leg, where post is nil). It
// returns the time spent marshalling and this thread's first failure.
//
// The failure rule both loops share: after the first failure a collective
// leg keeps walking its schedule — its peers are in the same collectives —
// with dseq.FailMarker standing in for real payloads, so the far side fails
// coherently instead of desynchronizing; a local leg stops. A thread whose
// collective marshal failed issues no more of them (its peers then fail
// their next one too), and nothing is posted after the wire fails.
func (l *leg) send(post func(*wire.Data) error) (time.Duration, error) {
	var marshal time.Duration
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	// With a codec engaged, rank 0 hands finished frames to a bounded send
	// worker: chunk k+1 is gathered and encoded while chunk k is still being
	// written. One goroutine draining a FIFO channel keeps frames in schedule
	// order; a raw leg keeps the exact serial send (and its alloc profile)
	// because no codec means nothing to overlap.
	var (
		sendCh   chan *wire.Data
		sendDone chan struct{}
		sendErr  error // owned by the worker until sendDone is closed
	)
	if l.mask != 0 && l.me == 0 && post != nil {
		sendCh = make(chan *wire.Data, encodeAheadDepth)
		sendDone = make(chan struct{})
		go func() {
			defer close(sendDone)
			for d := range sendCh {
				if sendErr == nil {
					if err := post(d); err != nil {
						sendErr = commFailure(err)
					}
				}
			}
		}()
	}
	gatherDown, wireDown := false, false
	for _, p := range l.pieces {
		if firstErr != nil && l.comm == nil {
			break
		}
		start := time.Now()
		var payload []byte
		var err error
		if l.comm == nil {
			payload, err = l.seqs[p.arg].MarshalRange(p.SrcOff, p.Len)
		} else if !gatherDown {
			payload, err = l.seqs[p.arg].GatherMarshalRangeZ(l.comm, 0, p.SrcOff, p.Len, l.mask)
			gatherDown = err != nil
		}
		marshal += time.Since(start)
		if err != nil {
			fail(err)
			if l.comm == nil {
				break
			}
		}
		if l.comm != nil && l.me != 0 {
			l.span(obs.PhaseChunkSend, start, l.mask)
			continue
		}
		if firstErr != nil {
			payload = dseq.FailMarker
		}
		if l.inline != nil {
			l.inline[p.arg] = payload
			continue
		}
		d := &wire.Data{
			RequestID: l.token, ArgIndex: uint32(p.arg), Reply: l.reply,
			SrcRank: uint32(p.SrcRank), DstRank: uint32(p.DstRank),
			DstOff: uint64(p.DstOff), Count: uint64(p.Len), Payload: payload,
		}
		if l.comm != nil {
			d.Flags = chunkFlags(p.last, payload)
		}
		if sendCh != nil {
			sendCh <- d
		} else if !wireDown {
			if err := post(d); err != nil {
				wireDown = true
				fail(commFailure(err))
			}
		}
		l.span(obs.PhaseChunkSend, start, l.mask)
	}
	if sendCh != nil {
		close(sendCh)
		<-sendDone
		fail(sendErr)
	}
	return marshal, firstErr
}

// chunkFlags marks a collective leg's Data frame as a stream chunk, the last
// of its argument, and compressed when the payload is a compressed envelope
// (per chunk: incompressible chunks fall back to raw mid-stream).
func chunkFlags(last bool, payload []byte) byte {
	f := byte(wire.DataFlagChunk)
	if last {
		f |= wire.DataFlagLast
	}
	if dseq.IsCompressedChunk(payload) {
		f |= wire.DataFlagCompressed
	}
	return f
}

// recv runs the leg's receive loop: take each piece's payload — from the
// body on an inline leg, else from the frames arriving on ch (only rank 0
// reads on a collective leg) — and store it. It returns this thread's first
// failure, under send's failure rule. A nil stop disables cancellation; a
// zero timeout disables the per-frame deadline.
func (l *leg) recv(ch chan *wire.Data, stop <-chan struct{}, timeout time.Duration) error {
	in := inbox{ch: ch, stop: stop, timeout: timeout}
	defer in.close()
	var firstErr error
	for k, p := range l.pieces {
		if firstErr != nil && l.comm == nil {
			break
		}
		start := time.Now()
		var payload []byte
		var frame *wire.Data
		if l.comm == nil || l.me == 0 {
			switch {
			case firstErr != nil:
				payload = dseq.FailMarker
			case l.inline != nil:
				payload = l.inline[p.arg]
			default:
				d, err := in.take(l, k)
				if err != nil {
					firstErr, payload = err, dseq.FailMarker
				} else {
					frame, payload = d, d.Payload
				}
			}
		}
		var err error
		if l.comm != nil {
			err = l.seqs[p.arg].ScatterUnmarshalRange(l.comm, 0, p.DstOff, p.Len, payload)
		} else if firstErr == nil {
			err = l.seqs[p.arg].UnmarshalRange(p.DstOff, payload)
		}
		// The store copied the elements out (or rejected the chunk), so the
		// borrowed transport buffer goes back to the pool either way.
		if frame != nil {
			frame.Release()
		}
		if firstErr == nil {
			firstErr = err
		}
		l.span(obs.PhaseChunkRecv, start, 0)
	}
	return firstErr
}

// frameKey identifies a piece's frame: its argument and destination offset.
type frameKey struct {
	arg uint32
	off uint64
}

// inbox receives a leg's frames by (argument, offset). Frames of a later
// piece that arrive before their turn (multi-port flows from several
// threads interleave) wait in early; in-order streams never allocate it.
type inbox struct {
	ch      chan *wire.Data
	stop    <-chan struct{}
	timeout time.Duration
	timer   *time.Timer
	order   map[frameKey]int // piece index by key; built on the first early frame
	early   map[frameKey]*wire.Data
}

// take returns the frame of piece k of l. On error any frame involved has
// been released; on success the caller owns the frame.
func (in *inbox) take(l *leg, k int) (*wire.Data, error) {
	p := l.pieces[k]
	want := frameKey{uint32(p.arg), uint64(p.DstOff)}
	d, ok := in.early[want]
	delete(in.early, want)
	for !ok {
		var err error
		if d, err = in.next(); err != nil {
			return nil, err
		}
		key := frameKey{d.ArgIndex, d.DstOff}
		if ok = key == want && d.Reply == l.reply; ok {
			break
		}
		if in.order == nil {
			in.order = make(map[frameKey]int, len(l.pieces))
			in.early = make(map[frameKey]*wire.Data)
			for i, q := range l.pieces {
				in.order[frameKey{uint32(q.arg), uint64(q.DstOff)}] = i
			}
		}
		if i, later := in.order[key]; !later || i <= k || d.Reply != l.reply || in.early[key] != nil {
			d.Release()
			return nil, fmt.Errorf("%w: unexpected transfer for arg %d at offset %d, want arg %d offset %d",
				ErrBadHeader, key.arg, key.off, want.arg, want.off)
		}
		in.early[key] = d
	}
	if d.Count != uint64(p.Len) {
		d.Release()
		return nil, fmt.Errorf("%w: transfer for arg %d at offset %d has %d elements, want %d",
			ErrBadHeader, p.arg, p.DstOff, d.Count, p.Len)
	}
	return d, nil
}

// next waits for the next frame. A nil frame is the connection-loss poison
// a dying data connection leaves in its sinks.
func (in *inbox) next() (*wire.Data, error) {
	var deadline <-chan time.Time
	if in.timeout > 0 {
		if in.timer == nil {
			in.timer = time.NewTimer(in.timeout)
		} else {
			in.timer.Reset(in.timeout)
		}
		deadline = in.timer.C
	}
	select {
	case d := <-in.ch:
		if d == nil {
			return nil, &orb.SystemException{RepoID: orb.RepoComm, Message: "data connection lost mid-transfer"}
		}
		return d, nil
	case <-in.stop:
		return nil, ErrStopped
	case <-deadline:
		return nil, fmt.Errorf("core: transfer frame timed out after %v", in.timeout)
	}
}

func (in *inbox) close() {
	if in.timer != nil {
		in.timer.Stop()
	}
	for _, d := range in.early {
		d.Release()
	}
}

// drainData empties a data channel without blocking, returning any pooled
// frames still buffered in it.
func drainData(ch chan *wire.Data) {
	for {
		select {
		case d := <-ch:
			if d != nil {
				d.Release()
			}
		default:
			return
		}
	}
}
