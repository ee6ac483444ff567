// Command pardisbench is the repository benchmark: closed-loop SPMD
// invocations of xfer(inout dsequence<double>) between a 2-rank client and
// a 2-rank object over loopback TCP, with every element checked on both
// sides. README.md describes the workloads and metrics.
//
//	bash pardisbench/run.sh --workload bulk-central --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced and a traced loop of half the time each, then the layer
// replays, and prints the per-layer metrics. The last line of standard
// output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/zcodec"
)

// setups is how many times a run builds the stack before measuring; setup_s
// is their median.
const setups = 21

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pardisbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the generated field")
	seconds := fs.Float64("seconds", 10, "measured time")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "pardisbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	want := field(*seed, w.elems)
	var (
		metrics []metric
		out     outcome
		err     error
	)
	if *trace == 0 {
		metrics, out, err = endToEnd(w, want, dur)
	} else {
		metrics, out, err = perLayer(w, want, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pardisbench: %s: %v\n", w.name, err)
		return 1
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]jsonMetric{}}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d: %d invocations, %d failed, correct %v\n",
		w.name, *seed, *trace, out.attempted, out.failed, out.correct)
	for _, m := range metrics {
		fmt.Fprintf(stdout, "  %-36s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardisbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// outcome is a run's failure accounting. An invocation fails when it
// returns an error, times out, or any rank finds a wrong element in it.
type outcome struct {
	attempted, failed int
	correct           bool
}

func (e *env) outcome(segs ...*segment) outcome {
	var o outcome
	for _, s := range segs {
		o.attempted += s.attempted + s.warm.attempted
		o.failed += s.errs + s.warm.errs
	}
	o.failed = min(o.attempted, o.failed+int(e.peerWrongInv.Load()))
	o.correct = e.cliWrong.Load() == 0 && e.srvWrong.Load() == 0
	return o
}

// drainPool waits for pooled receive frames to come home after teardown
// and returns how many are still out.
func drainPool() int64 {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := transport.PoolOutstanding()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func perInv(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

// endToEnd measures what a user of the stack sees, untraced.
func endToEnd(w workload, want []float64, dur time.Duration) ([]metric, outcome, error) {
	e := &env{w: w, want: want}
	seg := &segment{}
	if err := e.runSegment(seg, setups, dur/10, dur); err != nil {
		return nil, outcome{}, err
	}
	out := e.outcome(seg)
	if pool := drainPool(); pool != 0 {
		out.correct = false
		fmt.Fprintf(os.Stderr, "pardisbench: %d pooled frames outstanding after drain\n", pool)
	}
	// The host's speed drifts by tens of percent within seconds, so each
	// timing is taken per window of about two seconds and the median over
	// the windows is reported: a burst of interference then moves one
	// window, not the result.
	var p50s, p90s []time.Duration
	var rates, cpus []float64
	ws := seg.windows(window2s)
	for _, w := range ws {
		p50s = append(p50s, percentile(w.lat, 0.5))
		p90s = append(p90s, percentile(w.lat, 0.9))
		rates = append(rates, float64(len(w.lat)-w.errs)/w.dur.Seconds())
		cpus = append(cpus, perInv(ms(w.cpu), len(w.lat)))
	}
	count := fmt.Sprintf("(n=%d in %d windows)", len(seg.lat), len(ws))
	rate := medianFloat(rates)
	return []metric{
		{name: "setup_s", value: median(seg.setups).Seconds(), unit: "s", note: fmt.Sprintf("(median of %d)", len(seg.setups))},
		{name: "inv_p50_ms", value: ms(median(p50s)), unit: "ms", note: count},
		{name: "inv_p90_ms", value: ms(median(p90s)), unit: "ms", note: count},
		{name: "inv_per_s", value: rate, unit: "1/s"},
		{name: "payload_mbps", value: rate * float64(2*8*w.elems) / 1e6, unit: "MB/s"},
		{name: "cpu_ms_per_inv", value: medianFloat(cpus), unit: "ms"},
		{name: "alloc_kib_per_inv", value: perInv(float64(seg.alloc)/1024, seg.attempted), unit: "KiB"},
	}, out, nil
}

// window2s is the span of the windows end-to-end timings are taken over:
// long enough that a bulk-central window holds about 100 invocations even
// on a slow host, so its p90 has about ten samples beyond it.
const window2s = 2 * time.Second

// enableLayerMetrics points the runtime system's, dseq's and zcodec's
// package-level instruments at reg; nil detaches them.
func enableLayerMetrics(reg *obs.Registry) {
	rts.EnableMetrics(reg)
	dseq.EnableMetrics(reg)
	zcodec.EnableMetrics(reg)
}

// perLayer runs untraced and traced loops of a quarter of dur each, in the
// order untraced, traced, traced, untraced so drift over the run weighs on
// both kinds alike; attributes the traced invocations to their phases; reads
// the layer counters; and runs the layer replays.
func perLayer(w workload, want []float64, seed int64, dur time.Duration) ([]metric, outcome, error) {
	tr := newTracer()
	eu := &env{w: w, want: want}
	et := &env{w: w, want: want, tr: tr}
	plain, traced := &segment{}, &segment{}
	q := dur / 4
	for _, traceIt := range []bool{false, true, true, false} {
		var err error
		if traceIt {
			enableLayerMetrics(tr.reg)
			err = et.runSegment(traced, 3, q/10, q)
			enableLayerMetrics(nil)
		} else {
			err = eu.runSegment(plain, 1, q/10, q)
		}
		if err != nil {
			return nil, outcome{}, err
		}
	}
	if tr.err != nil {
		return nil, outcome{}, tr.err
	}
	a := &tr.att
	if err := a.check(); err != nil {
		return nil, outcome{}, err
	}
	ratio := zcodec.EncodeRatio() // before the replays add to the ledger
	pool := drainPool()

	out := eu.outcome(plain)
	tout := et.outcome(traced)
	out.attempted += tout.attempted
	out.failed += tout.failed
	out.correct = out.correct && tout.correct && pool == 0

	n := traced.attempted
	if a.n != n {
		return nil, outcome{}, fmt.Errorf("attributed %d of %d traced invocations", a.n, n)
	}
	perChunk := func(sum int64, k int) float64 { return perInv(us(time.Duration(sum)), k) }
	counter := func(name string) float64 { return float64(tr.deltas[name]) }
	engaged := 0.0
	if w.compress && n > 0 {
		legs := float64(2 * n)
		engaged = (legs - counter("core.compress.skipped_total")) / legs
	}
	payload := float64(2 * 8 * w.elems * n)
	p50u, p50t := percentile(plain.lat, 0.5), percentile(traced.lat, 0.5)

	res := []metric{
		{name: "core.invoke_ms", value: perInv(ms(time.Duration(a.invoke)), a.n), unit: "ms",
			note: fmt.Sprintf("(client rank 0 invoke span, n=%d; the phases below sum to it)", a.n)},
		{name: "core.unattributed_ms", value: perInv(ms(time.Duration(a.unattributed)), a.n), unit: "ms"},
		{name: "core.chunk_send_us", value: perChunk(a.chunkSend, a.nChunkSend), unit: "us", note: fmt.Sprintf("(n=%d)", a.nChunkSend)},
		{name: "core.chunk_recv_us", value: perChunk(a.chunkRecv, a.nChunkRecv), unit: "us", note: fmt.Sprintf("(n=%d)", a.nChunkRecv)},
		{name: "core.queue_us", value: perInv(us(time.Duration(a.queue)), a.n), unit: "us"},
		{name: "core.future_wait_ms", value: perInv(ms(tr.futWait), n), unit: "ms"},
		{name: "core.recv_xfer_ms", value: perInv(ms(time.Duration(a.recvXfer)), a.n), unit: "ms", note: "(slowest server rank)"},
		{name: "core.send_xfer_ms", value: perInv(ms(time.Duration(a.sendXfr)), a.n), unit: "ms", note: "(slowest server rank)"},
		{name: "core.bind_ms", value: ms(median(tr.binds)), unit: "ms", note: fmt.Sprintf("(median of %d)", len(tr.binds))},
		{name: "core.export_ms", value: ms(median(traced.exports)), unit: "ms", note: fmt.Sprintf("(median of %d)", len(traced.exports))},
		{name: "orb.dispatch_p50_us", value: us(tr.reg.Histogram("orb.server.dispatch_ns").Quantile(0.5)), unit: "us", note: "(power-of-two bucket bound)"},
		{name: "orb.handle_p50_us", value: us(tr.reg.Histogram("orb.server.handle_ns").Quantile(0.5)), unit: "us", note: "(power-of-two bucket bound)"},
		{name: "orb.shed_total", value: counter("orb.server.shed"), unit: "count"},
		{name: "orb.client_retries_total", value: counter("orb.client.retries"), unit: "count"},
		{name: "zcodec.ratio", value: ratio, unit: "ratio"},
		{name: "zcodec.engaged_frac", value: engaged, unit: "frac"},
		{name: "transport.frames_per_inv", value: perInv(float64(tr.frames.Load()), n), unit: "count"},
		{name: "transport.wire_bytes_per_payload_byte", value: perInv(float64(tr.bytes.Load()), 1) / max(payload, 1), unit: "ratio"},
		{name: "transport.pool_outstanding", value: float64(pool), unit: "count"},
		{name: "go.gc_cycles_per_inv", value: perInv(float64(traced.gcs), n), unit: "count"},
		{name: "go.gc_pause_ms_per_inv", value: perInv(ms(traced.gcPause), n), unit: "ms"},
		{name: "obs.trace_overhead_frac", value: ms(p50t)/ms(p50u) - 1, unit: "frac",
			note: fmt.Sprintf("(traced p50 %.4g ms n=%d, untraced %.4g ms n=%d)", ms(p50t), len(traced.lat), ms(p50u), len(plain.lat))},
		{name: "error_frac", value: perInv(float64(out.failed), out.attempted), unit: "frac"},
	}
	// Client phase self times, inserted after core.invoke_ms so the phases
	// and the remainder follow the span they partition.
	var phases []metric
	for _, p := range []obs.Phase{obs.PhaseGather, obs.PhaseScatter, obs.PhasePack, obs.PhaseUnpack, obs.PhaseBarrier, obs.PhaseSendRecv} {
		phases = append(phases, metric{name: phaseMetric[p], value: perInv(ms(time.Duration(a.self[p])), a.n), unit: "ms", note: "(self)"})
	}
	res = append(res[:1], append(phases, res[1:]...)...)
	replays := []func() ([]metric, error){
		replayRTS,
		func() ([]metric, error) { return replayDseq(seed) },
		func() ([]metric, error) { return replayCDR(seed) },
		func() ([]metric, error) { return replayZcodec(seed) },
		replayWire,
		replayTransport,
		replayDist,
	}
	for _, r := range replays {
		m, err := r()
		if err != nil {
			return nil, outcome{}, err
		}
		res = append(res, m...)
	}
	if pool := drainPool(); pool != 0 {
		return nil, outcome{}, fmt.Errorf("%d pooled frames outstanding after the transport replay", pool)
	}
	return res, out, nil
}
