package main

import (
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// Layer replays time one layer's exported functions directly, on the chunk
// sizes, layouts, headers and field the workloads use, so each per-layer
// number has a basis that does not depend on the scheduler interleaving a
// whole invocation. Each returns its metrics or the error that stopped it.

const (
	chunkElems = 8192 // the streamed transfer's chunk: 64 KiB of doubles
	bulkElems  = 1 << 19
	thinElems  = 1 << 15
	smallElems = 2048
)

// timeReps runs f reps times and returns the median duration of one call.
func timeReps(reps int, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	return median(ds), nil
}

// amortized runs the collective f reps times back to back between two
// barriers and returns the time per call. A rank that only sends runs
// ahead into buffered mailboxes, so one call's own latency would show only
// the receiver's share; the amortized time is the collective's throughput
// cost for both ranks.
func amortized(c *rts.Comm, reps int, f func() error) (time.Duration, error) {
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(reps), nil
}

// replayRTS times the runtime system's collectives between 2 ranks: gather
// and scatter of one 64 KiB chunk owned by rank 1 (the centralized
// transfer's cross-rank case), and the small broadcast and barrier every
// invocation runs.
func replayRTS() ([]metric, error) {
	w := rts.NewWorld(ranks, rts.Options{RecvTimeout: opTimeout})
	defer w.Close()
	chunk := make([]byte, 8+8*chunkElems)
	token := []byte{1, 2, 3, 4}
	var got [4]time.Duration
	err := w.Run(func(c *rts.Comm) error {
		var mine []byte
		var parts [][]byte
		if c.Rank() == 1 {
			mine = chunk
		} else {
			parts = [][]byte{nil, chunk}
		}
		ops := []struct {
			reps int
			f    func() error
		}{
			{2000, func() error { _, err := c.Gather(0, mine); return err }},
			{2000, func() error { _, err := c.Scatter(0, parts); return err }},
			{5000, func() error { _, err := c.Bcast(0, token); return err }},
			{5000, c.Barrier},
		}
		for i, op := range ops {
			d, err := amortized(c, op.reps, op.f)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got[i] = d
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("rts replay: %w", err)
	}
	return []metric{
		{name: "rts.gatherv_us", value: us(got[0]), unit: "us"},
		{name: "rts.scatterv_us", value: us(got[1]), unit: "us"},
		{name: "rts.bcast_us", value: us(got[2]), unit: "us"},
		{name: "rts.barrier_us", value: us(got[3]), unit: "us"},
	}, nil
}

// replayDseq walks bulk-central's chunk schedule over a block-distributed
// 2^19-element sequence on 2 ranks — gather-marshal at root 0, then
// scatter-unmarshal of the same payloads — and reports the mean per chunk
// on rank 0. Half the chunks are root-owned, half cross ranks, as in the
// workload.
func replayDseq(seed int64) ([]metric, error) {
	want := field(seed, bulkElems)
	const passes = 4
	w := rts.NewWorld(ranks, rts.Options{RecvTimeout: opTimeout})
	defer w.Close()
	var gather, scatter time.Duration
	nchunks := bulkElems / chunkElems
	err := w.Run(func(c *rts.Comm) error {
		s, err := dseq.New(c, dseq.Float64, bulkElems, dist.Block{})
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) float64 { return want[g] })
		payloads := make([][]byte, nchunks)
		var g, sc time.Duration
		for p := 0; p < passes; p++ {
			for k := 0; k < nchunks; k++ {
				start := time.Now()
				b, err := s.GatherMarshalRange(c, 0, k*chunkElems, chunkElems)
				if err != nil {
					return err
				}
				g += time.Since(start)
				payloads[k] = b
			}
			for k := 0; k < nchunks; k++ {
				start := time.Now()
				if err := s.ScatterUnmarshalRange(c, 0, k*chunkElems, chunkElems, payloads[k]); err != nil {
					return err
				}
				sc += time.Since(start)
			}
		}
		if c.Rank() == 0 {
			n := time.Duration(passes * nchunks)
			gather, scatter = g/n, sc/n
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dseq replay: %w", err)
	}
	return []metric{
		{name: "dseq.gather_marshal_range_us", value: us(gather), unit: "us"},
		{name: "dseq.scatter_unmarshal_range_us", value: us(scatter), unit: "us"},
	}, nil
}

// throughput converts bytes moved in d to the given unit per second.
func throughput(bytes int, d time.Duration, unit float64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / unit
}

// replayCDR times the native-order block codecs on one chunk of doubles.
func replayCDR(seed int64) ([]metric, error) {
	vals := field(seed, chunkElems)
	e := cdr.NewEncoder(cdr.NativeOrder)
	wr, _ := timeReps(2000, func() error { e.Reset(); e.WriteDoubles(vals); return nil }) // cannot fail
	enc := append([]byte(nil), e.Bytes()...)
	dst := make([]float64, chunkElems)
	rd, err := timeReps(2000, func() error {
		_, err := cdr.NewDecoder(enc, cdr.NativeOrder).ReadDoublesInto(dst)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("cdr replay: %w", err)
	}
	for i, v := range dst {
		if v != vals[i] {
			return nil, fmt.Errorf("cdr replay: element %d decoded as %v, want %v", i, v, vals[i])
		}
	}
	bytes := 8 * chunkElems
	return []metric{
		{name: "cdr.write_doubles_gbps", value: throughput(bytes, wr, 1e9), unit: "GB/s"},
		{name: "cdr.read_doubles_into_gbps", value: throughput(bytes, rd, 1e9), unit: "GB/s"},
	}, nil
}

// replayZcodec times the XOR block codec on thin-link-auto's own field, one
// 8192-element chunk at a time, in raw megabytes per second.
func replayZcodec(seed int64) ([]metric, error) {
	f := field(seed, thinElems)
	var blocks [][]byte
	for off := 0; off < thinElems; off += chunkElems {
		blocks = append(blocks, zcodec.AppendDoubles(nil, f[off:off+chunkElems]))
	}
	const passes = 50
	var dst []byte
	start := time.Now()
	for p := 0; p < passes; p++ {
		for off := 0; off < thinElems; off += chunkElems {
			dst = zcodec.AppendDoubles(dst[:0], f[off:off+chunkElems])
		}
	}
	enc := time.Since(start)
	out := make([]float64, chunkElems)
	start = time.Now()
	for p := 0; p < passes; p++ {
		for i, b := range blocks {
			if err := zcodec.DecodeDoublesInto(out, b); err != nil {
				return nil, fmt.Errorf("zcodec replay: %w", err)
			}
			if p == 0 {
				for j, v := range out {
					if v != f[i*chunkElems+j] {
						return nil, fmt.Errorf("zcodec replay: element %d decoded as %v", i*chunkElems+j, v)
					}
				}
			}
		}
	}
	dec := time.Since(start)
	bytes := passes * 8 * thinElems
	return []metric{
		{name: "zcodec.encode_mbps", value: throughput(bytes, enc, 1e6), unit: "MB/s"},
		{name: "zcodec.decode_mbps", value: throughput(bytes, dec, 1e6), unit: "MB/s"},
	}, nil
}

// replayWire times encoding the request small-pipelined sends (its 16 KiB
// argument inline) and decoding a frame header.
func replayWire() ([]metric, error) {
	req := &wire.Request{
		RequestID: 7, ResponseExpected: true,
		ObjectKey: []byte("spmd/IDL:pardisbench/xfer:1.0/xfer"),
		Operation: opName, Principal: "spmd-client/0",
		Args: make([]byte, 8*smallElems+128),
	}
	encReq, _ := timeReps(5000, func() error { wire.Encode(req, cdr.NativeOrder); return nil }) // cannot fail
	frame := wire.Encode(req, cdr.NativeOrder)
	dec, err := timeReps(20000, func() error { _, err := wire.DecodeHeader(frame[:wire.HeaderLen]); return err })
	if err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	return []metric{
		{name: "wire.encode_request_ns", value: float64(encReq), unit: "ns"},
		{name: "wire.decode_header_ns", value: float64(dec), unit: "ns"},
	}, nil
}

// replayTransport times a round trip of one 64 KiB Data frame over loopback
// TCP with default options (the vectored write path), echoed by a peer.
func replayTransport() ([]metric, error) {
	lis, err := transport.Listen("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	defer lis.Close()
	echoDone := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			echoDone <- err
			return
		}
		defer conn.Close()
		for {
			m, err := conn.ReadMessage()
			if err != nil {
				echoDone <- nil // the client hung up
				return
			}
			d := m.(*wire.Data)
			err = conn.WriteMessage(d)
			d.Release()
			if err != nil {
				echoDone <- err
				return
			}
		}
	}()
	conn, err := transport.Dial(lis.Addr(), nil)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 8*chunkElems)
	rtt, err := timeReps(500, func() error {
		if err := conn.WriteMessage(&wire.Data{RequestID: 1, Count: chunkElems, Payload: payload}); err != nil {
			return err
		}
		m, err := conn.ReadMessage()
		if err != nil {
			return err
		}
		d, ok := m.(*wire.Data)
		if !ok || len(d.Payload) != len(payload) {
			return fmt.Errorf("echo returned %T of wrong size", m)
		}
		d.Release()
		return nil
	})
	conn.Close()
	if eerr := <-echoDone; err == nil {
		err = eerr
	}
	if err != nil {
		return nil, fmt.Errorf("transport replay: %w", err)
	}
	return []metric{{name: "transport.echo_64k_us", value: us(rtt), unit: "us"}}, nil
}

// replayDist times planning both legs of redist-multiport's redistribution
// (client block to the server's 1:3 proportions and back) and counts the
// moves.
func replayDist() ([]metric, error) {
	src, err := dist.Block{}.Layout(bulkElems, ranks)
	if err != nil {
		return nil, err
	}
	dst, err := dist.Proportions{P: []int{1, 3}}.Layout(bulkElems, ranks)
	if err != nil {
		return nil, err
	}
	moves := 0
	plan, err := timeReps(5000, func() error {
		fwd, err := dist.Plan(src, dst)
		if err != nil {
			return err
		}
		rev, err := dist.Plan(dst, src)
		moves = len(fwd) + len(rev)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dist replay: %w", err)
	}
	return []metric{
		{name: "dist.plan_us", value: us(plan), unit: "us"},
		{name: "dist.moves", value: float64(moves), unit: "count"},
	}, nil
}
