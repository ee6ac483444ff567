package dseq

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/rts"
)

// This file is the bridge between distributed sequences and the PARDIS
// transfer engine (internal/core). The engine is element-type agnostic:
// it manipulates sequences through the Transferable view below, moving
// opaque marshalled chunks whose encoding the sequence's codec owns.

// Transferable is the engine-facing view of a distributed sequence.
// *Seq[T] implements it for every element type.
type Transferable interface {
	// ElemName names the element type for header validation ("double"...).
	ElemName() string
	// Len returns the global length.
	Len() int
	// Layout returns the current layout.
	Layout() dist.Layout
	// Spec returns the distribution law, or nil when the layout was set
	// explicitly.
	Spec() dist.Spec
	// MarshalRange renders local elements [off, off+n) as a chunk payload.
	MarshalRange(off, n int) ([]byte, error)
	// MarshalRangeZ is MarshalRange compressing with the first codec of mask
	// that applies to the element type; incompressible or short payloads
	// fall back to the raw chunk encoding transparently. Receivers need
	// nothing special: UnmarshalRange auto-detects compressed envelopes.
	MarshalRangeZ(off, n int, mask uint8) ([]byte, error)
	// UnmarshalRange stores a chunk payload at local offset off.
	UnmarshalRange(off int, payload []byte) error
	// GatherMarshalRange collects global elements [start, start+n) at root
	// and renders them as one chunk payload in global order. Non-root ranks
	// receive nil; root returns ErrChunkFailed when a contributor fed a
	// FailMarker. Collective over c (all of c's ranks call it with identical
	// arguments, in the same order); a nil c uses the sequence's own
	// communicator.
	GatherMarshalRange(c *rts.Comm, root, start, n int) ([]byte, error)
	// GatherMarshalRangeZ is GatherMarshalRange with wire compression: mask
	// is the connection's negotiated zcodec bitmask, replicated across the
	// ranks by the transfer engine. Mask zero is exactly GatherMarshalRange;
	// element types without a block codec ignore the mask.
	GatherMarshalRangeZ(c *rts.Comm, root, start, n int, mask uint8) ([]byte, error)
	// ScatterUnmarshalRange distributes a chunk payload holding global
	// elements [start, start+n) (significant at root) into the owning ranks'
	// local storage. Feeding FailMarker as the payload poisons the chunk:
	// the collective still runs, owners skip the store, and every
	// participant with elements in the range returns ErrChunkFailed.
	// Collective, like GatherMarshalRange.
	ScatterUnmarshalRange(c *rts.Comm, root, start, n int, payload []byte) error
	// ResizeAlloc reallocates the sequence to a new length using its spec
	// (Block when unset), discarding contents. Not collective: every rank
	// must call it with the same length.
	ResizeAlloc(length int) error
}

// MarshalRangeZ implements Transferable.
func (s *Seq[T]) MarshalRangeZ(off, n int, mask uint8) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(s.local) {
		return nil, fmt.Errorf("%w: local range [%d,%d) of %d", ErrIndex, off, off+n, len(s.local))
	}
	return MarshalChunkZ(s.codec, s.local[off:off+n], mask), nil
}

// Spec returns the sequence's distribution law (nil if the layout was
// explicit).
func (s *Seq[T]) Spec() dist.Spec { return s.spec }

// ElemName implements Transferable.
func (s *Seq[T]) ElemName() string { return s.codec.Name }

// MarshalRange implements Transferable.
func (s *Seq[T]) MarshalRange(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(s.local) {
		return nil, fmt.Errorf("%w: local range [%d,%d) of %d", ErrIndex, off, off+n, len(s.local))
	}
	return MarshalChunk(s.codec, s.local[off:off+n]), nil
}

// UnmarshalRange implements Transferable. It decodes straight into local
// storage at off — no intermediate slice — and never retains payload, so a
// chunk backed by a borrowed transport buffer may be released as soon as
// this returns.
func (s *Seq[T]) UnmarshalRange(off int, payload []byte) error {
	if off < 0 || off > len(s.local) {
		return fmt.Errorf("%w: chunk offset %d outside %d local elements", ErrIndex, off, len(s.local))
	}
	_, err := UnmarshalChunkInto(s.codec, payload, s.local[off:])
	return err
}

// ResizeAlloc implements Transferable.
func (s *Seq[T]) ResizeAlloc(length int) error {
	spec := s.spec
	if spec == nil {
		spec = dist.Block{}
	}
	layout, err := spec.Layout(length, s.comm.Size())
	if err != nil {
		return err
	}
	s.layout = layout
	s.local = make([]T, layout.Count(s.comm.Rank()))
	return nil
}
