package dseq

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/rts"
)

// This file implements the collective side of the centralized transfer
// method: the transfer engine walks a deterministic schedule of global
// element ranges — chunks of a streamed transfer, or one whole-range piece
// per argument — and moves each through the root, overlapping runtime-system
// gathers with wire transmission. The range methods below are the per-piece
// building blocks. They take an explicit communicator because pipelined
// invocations run each outstanding request on its own duplicated context
// (lane) — the sequence's own communicator belongs to the application and
// must not carry engine traffic that could interleave between overlapping
// invocations.

// ErrChunkFailed reports that a peer substituted a fail marker for a chunk:
// an earlier error was detected elsewhere, and the marker kept the collective
// schedule aligned while propagating the failure.
var ErrChunkFailed = errors.New("dseq: peer marked chunk failed")

// FailMarker is a one-byte chunk payload that MarshalChunk can never produce
// (a real chunk starts with a 0/1 byte-order octet). When a participant hits
// an error mid-schedule it must keep calling the range methods for the
// remaining chunks — breaking the loop would desynchronize the collectives —
// and feeds this marker instead of real data, so peers fail fast without
// losing alignment.
var FailMarker = []byte{0xFF}

// IsFailMarker reports whether a chunk payload is the failure marker.
func IsFailMarker(p []byte) bool { return len(p) == 1 && p[0] == 0xFF }

// rangeSeg is the intersection of one of a rank's layout intervals with a
// requested global range: n elements at localOff in the rank's local buffer,
// appearing at rangeOff within the range.
type rangeSeg struct {
	localOff int
	rangeOff int
	n        int
}

// rangeSegs computes rank's segments inside [start, start+n), in global
// order (per-rank interval lists are sorted by start).
func rangeSegs(l dist.Layout, rank, start, n int) []rangeSeg {
	var segs []rangeSeg
	off := 0
	for _, iv := range l.Intervals[rank] {
		lo := max(iv.Start, start)
		hi := min(iv.End(), start+n)
		if hi > lo {
			segs = append(segs, rangeSeg{
				localOff: off + (lo - iv.Start),
				rangeOff: lo - start,
				n:        hi - lo,
			})
		}
		off += iv.Len
	}
	return segs
}

func segTotal(segs []rangeSeg) int {
	n := 0
	for _, s := range segs {
		n += s.n
	}
	return n
}

// checkStreamRange validates a range method call. All inputs are replicated
// (layout, start, n agree across ranks), so acceptance is deterministic: an
// error returns at every rank before any communication happens.
func (s *Seq[T]) checkStreamRange(c *rts.Comm, root, start, n int) (*rts.Comm, error) {
	if c == nil {
		c = s.comm
	}
	if c.Size() != s.layout.Ranks || c.Rank() != s.comm.Rank() {
		return nil, fmt.Errorf("%w: streaming comm rank %d/%d against layout for rank %d/%d",
			ErrLayout, c.Rank(), c.Size(), s.comm.Rank(), s.layout.Ranks)
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: root %d of %d ranks", ErrIndex, root, c.Size())
	}
	if start < 0 || n < 0 || start+n > s.layout.Length {
		return nil, fmt.Errorf("%w: chunk [%d,%d) of %d", ErrIndex, start, start+n, s.layout.Length)
	}
	return c, nil
}

// GatherMarshalRange implements Transferable.
func (s *Seq[T]) GatherMarshalRange(c *rts.Comm, root, start, n int) ([]byte, error) {
	return s.GatherMarshalRangeZ(c, root, start, n, 0)
}

// GatherMarshalRangeZ is GatherMarshalRange with wire compression: mask
// is the connection's negotiated zcodec bitmask (replicated — every rank
// passes the same value, which the transfer engine broadcast alongside
// the chunk schedule). Compression happens exactly where the produced
// bytes are the final wire payload — a rank whose segments cover the
// whole chunk, or root assembling a multi-contributor chunk — so ranks
// compress their own chunks in parallel, overlapping the collectives
// the same way marshalling does. Intermediate gather parts that root
// will decode anyway stay raw: they cross in-process mailboxes, never
// the wire. Mask zero is exactly GatherMarshalRange.
func (s *Seq[T]) GatherMarshalRangeZ(c *rts.Comm, root, start, n int, mask uint8) ([]byte, error) {
	c, err := s.checkStreamRange(c, root, start, n)
	if err != nil {
		return nil, err
	}
	me := c.Rank()
	mySegs := rangeSegs(s.layout, me, start, n)

	// An empty range (a zero-length sequence's whole-range transfer) still
	// needs a well-formed chunk payload at root; it is deterministic from
	// the inputs, so no rank communicates.
	if n == 0 {
		if me != root {
			return nil, nil
		}
		return MarshalChunk(s.codec, nil), nil
	}

	// Root-owned chunk: every rank derives this from the replicated layout,
	// so the chunk costs no communication at all. With blockwise layouts and
	// chunks no larger than a block this is the common case for root's own
	// share of the sequence.
	if segTotal(rangeSegs(s.layout, root, start, n)) == n {
		if me != root {
			return nil, nil
		}
		return s.marshalSegsZ(mySegs, mask)
	}

	var mine []byte
	var myErr error
	if len(mySegs) > 0 {
		// A rank covering the whole chunk produces the wire payload itself
		// (root forwards it verbatim), so it compresses; partial parts are
		// decoded at root and travel raw.
		partMask := uint8(0)
		if segTotal(mySegs) == n {
			partMask = mask
		}
		if mine, myErr = s.marshalSegsZ(mySegs, partMask); myErr != nil {
			mine = FailMarker
		}
	}
	parts, err := c.Gather(root, mine)
	if err != nil {
		return nil, err
	}
	if myErr != nil {
		return nil, myErr
	}
	if me != root {
		return nil, nil
	}
	return s.assembleRange(parts, start, n, mask)
}

// marshalSegsZ renders the given local segments as one chunk payload in
// global order, compressing when mask admits the element codec. A single
// contiguous segment marshals straight out of local storage with no
// staging copy.
func (s *Seq[T]) marshalSegsZ(segs []rangeSeg, mask uint8) ([]byte, error) {
	if len(segs) == 1 {
		sg := segs[0]
		if sg.localOff < 0 || sg.localOff+sg.n > len(s.local) {
			return nil, fmt.Errorf("%w: local range [%d,%d) of %d", ErrIndex, sg.localOff, sg.localOff+sg.n, len(s.local))
		}
		return MarshalChunkZ(s.codec, s.local[sg.localOff:sg.localOff+sg.n], mask), nil
	}
	vals := make([]T, 0, segTotal(segs))
	for _, sg := range segs {
		if sg.localOff < 0 || sg.localOff+sg.n > len(s.local) {
			return nil, fmt.Errorf("%w: segment [%d,%d) of %d local elements", ErrIndex, sg.localOff, sg.localOff+sg.n, len(s.local))
		}
		vals = append(vals, s.local[sg.localOff:sg.localOff+sg.n]...)
	}
	return MarshalChunkZ(s.codec, vals, mask), nil
}

// assembleRange reassembles gathered per-rank pieces into one chunk payload
// for global range [start, start+n), compressing the result when mask
// admits it. Root-only.
func (s *Seq[T]) assembleRange(parts [][]byte, start, n int, mask uint8) ([]byte, error) {
	type contrib struct {
		rank int
		segs []rangeSeg
	}
	var cs []contrib
	for r := 0; r < s.layout.Ranks; r++ {
		if segs := rangeSegs(s.layout, r, start, n); len(segs) > 0 {
			cs = append(cs, contrib{rank: r, segs: segs})
		}
	}
	// A single contributor's piece already is the whole chunk in global
	// order: forward it without a decode/re-encode round trip. (The sole
	// contributor is never root here — a fully root-owned chunk skipped the
	// gather entirely.)
	if len(cs) == 1 {
		part := parts[cs[0].rank]
		if IsFailMarker(part) {
			return nil, fmt.Errorf("%w (rank %d)", ErrChunkFailed, cs[0].rank)
		}
		return part, nil
	}

	scratch := make([]T, n)
	merge := func(ct contrib) error {
		part := parts[ct.rank]
		if IsFailMarker(part) {
			return fmt.Errorf("%w (rank %d)", ErrChunkFailed, ct.rank)
		}
		want := segTotal(ct.segs)
		if len(ct.segs) == 1 {
			sg := ct.segs[0]
			m, err := UnmarshalChunkInto(s.codec, part, scratch[sg.rangeOff:sg.rangeOff+sg.n])
			if err != nil {
				return err
			}
			if m != sg.n {
				return fmt.Errorf("%w: rank %d sent %d of %d chunk elements", ErrLayout, ct.rank, m, sg.n)
			}
			return nil
		}
		vals, err := UnmarshalChunk(s.codec, part)
		if err != nil {
			return err
		}
		if len(vals) != want {
			return fmt.Errorf("%w: rank %d sent %d of %d chunk elements", ErrLayout, ct.rank, len(vals), want)
		}
		off := 0
		for _, sg := range ct.segs {
			copy(scratch[sg.rangeOff:sg.rangeOff+sg.n], vals[off:off+sg.n])
			off += sg.n
		}
		return nil
	}
	errs := make([]error, len(cs))
	if n >= parallelMinElems && len(cs) > 1 {
		pfor(len(cs), func(i int) { errs[i] = merge(cs[i]) })
	} else {
		for i := range cs {
			errs[i] = merge(cs[i])
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return MarshalChunkZ(s.codec, scratch, mask), nil
}

// ScatterUnmarshalRange implements Transferable.
func (s *Seq[T]) ScatterUnmarshalRange(c *rts.Comm, root, start, n int, payload []byte) error {
	c, err := s.checkStreamRange(c, root, start, n)
	if err != nil {
		return err
	}
	me := c.Rank()
	mySegs := rangeSegs(s.layout, me, start, n)

	// Empty range: nothing to store, but the marker still signals failure.
	if n == 0 {
		if me == root && IsFailMarker(payload) {
			return ErrChunkFailed
		}
		return nil
	}

	// Root-owned chunk: no communication (see GatherMarshalRange).
	if segTotal(rangeSegs(s.layout, root, start, n)) == n {
		if me != root {
			return nil
		}
		if IsFailMarker(payload) {
			return ErrChunkFailed
		}
		return s.storeSegs(mySegs, payload)
	}

	if me != root {
		chunk, err := c.Scatter(root, nil)
		if err != nil {
			return err
		}
		if len(mySegs) == 0 {
			return nil
		}
		if IsFailMarker(chunk) {
			return fmt.Errorf("%w (root %d)", ErrChunkFailed, root)
		}
		return s.storeSegs(mySegs, chunk)
	}
	return s.scatterRangeRoot(c, start, n, payload, mySegs)
}

// scatterRangeRoot splits payload into per-owner pieces and scatters them.
// On a bad payload it scatters fail markers instead, keeping the collective
// aligned while every owner learns of the failure.
func (s *Seq[T]) scatterRangeRoot(c *rts.Comm, start, n int, payload []byte, mySegs []rangeSeg) error {
	me := c.Rank()
	type contrib struct {
		rank int
		segs []rangeSeg
	}
	var cs []contrib
	for r := 0; r < s.layout.Ranks; r++ {
		if r == me {
			continue
		}
		if segs := rangeSegs(s.layout, r, start, n); len(segs) > 0 {
			cs = append(cs, contrib{rank: r, segs: segs})
		}
	}
	parts := make([][]byte, c.Size())

	poison := func(cause error) error {
		for _, ct := range cs {
			parts[ct.rank] = FailMarker
		}
		if _, err := c.Scatter(me, parts); err != nil {
			return err
		}
		return cause
	}

	if IsFailMarker(payload) {
		return poison(ErrChunkFailed)
	}
	// A sole remote owner takes the payload verbatim — but through a private
	// copy: the mailbox hands slices off without copying, and the payload
	// may be a borrowed transport buffer the caller releases after we return.
	if len(cs) == 1 && len(mySegs) == 0 && segTotal(cs[0].segs) == n {
		parts[cs[0].rank] = append([]byte(nil), payload...)
		_, err := c.Scatter(me, parts)
		return err
	}

	vals, err := UnmarshalChunk(s.codec, payload)
	if err != nil {
		return poison(err)
	}
	if len(vals) != n {
		return poison(fmt.Errorf("%w: chunk holds %d of %d elements", ErrLayout, len(vals), n))
	}
	build := func(ct contrib) {
		if len(ct.segs) == 1 {
			sg := ct.segs[0]
			parts[ct.rank] = MarshalChunk(s.codec, vals[sg.rangeOff:sg.rangeOff+sg.n])
			return
		}
		piece := make([]T, 0, segTotal(ct.segs))
		for _, sg := range ct.segs {
			piece = append(piece, vals[sg.rangeOff:sg.rangeOff+sg.n]...)
		}
		parts[ct.rank] = MarshalChunk(s.codec, piece)
	}
	if n >= parallelMinElems && len(cs) > 1 {
		pfor(len(cs), func(i int) { build(cs[i]) })
	} else {
		for i := range cs {
			build(cs[i])
		}
	}
	if _, err := c.Scatter(me, parts); err != nil {
		return err
	}
	// Root's own share copies straight out of the decoded values; it never
	// takes the marshal round trip.
	for _, sg := range mySegs {
		copy(s.local[sg.localOff:sg.localOff+sg.n], vals[sg.rangeOff:sg.rangeOff+sg.n])
	}
	return nil
}

// storeSegs decodes a chunk piece holding exactly this rank's segments (in
// global order) into local storage. A single contiguous segment decodes in
// place with no staging slice, so a piece backed by a borrowed transport
// buffer is released cleanly — nothing below retains payload.
func (s *Seq[T]) storeSegs(segs []rangeSeg, payload []byte) error {
	want := segTotal(segs)
	if len(segs) == 1 {
		sg := segs[0]
		if sg.localOff < 0 || sg.localOff+sg.n > len(s.local) {
			return fmt.Errorf("%w: segment [%d,%d) of %d local elements", ErrIndex, sg.localOff, sg.localOff+sg.n, len(s.local))
		}
		m, err := UnmarshalChunkInto(s.codec, payload, s.local[sg.localOff:sg.localOff+sg.n])
		if err != nil {
			return err
		}
		if m != sg.n {
			return fmt.Errorf("%w: chunk piece holds %d of %d elements", ErrLayout, m, sg.n)
		}
		return nil
	}
	vals, err := UnmarshalChunk(s.codec, payload)
	if err != nil {
		return err
	}
	if len(vals) != want {
		return fmt.Errorf("%w: chunk piece holds %d of %d elements", ErrLayout, len(vals), want)
	}
	off := 0
	for _, sg := range segs {
		copy(s.local[sg.localOff:sg.localOff+sg.n], vals[off:off+sg.n])
		off += sg.n
	}
	return nil
}
