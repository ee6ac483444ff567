package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// frameLog records the inbound frames of one side of a connection set as
// (message type, body size) while armed. Keepalive and compression-handshake
// Ping/Pong frames are timing-dependent and never recorded.
type frameLog struct {
	armed  atomic.Bool
	mu     sync.Mutex
	frames []string
}

func (l *frameLog) hook(h wire.Header) {
	if !l.armed.Load() || h.Type == wire.MsgPing || h.Type == wire.MsgPong {
		return
	}
	l.mu.Lock()
	l.frames = append(l.frames, fmt.Sprintf("%v:%d", h.Type, h.Size))
	l.mu.Unlock()
}

// render returns the recorded schedule, sorted when frames from several
// connections race (the comparison is then a multiset).
func (l *frameLog) render(multiset bool) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	fs := append([]string(nil), l.frames...)
	if multiset {
		sort.Strings(fs)
	}
	return strings.Join(fs, " ")
}

// renderServer is render for the server side. A streamed request's chunks
// leave the client while its Request is still being written by another
// goroutine, so the Request's place among the Data frames races: control
// frames are listed first, then the Data frames in arrival order (sorted
// when several connections feed them).
func (l *frameLog) renderServer(multiset bool) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ctl, data []string
	for _, f := range l.frames {
		if strings.HasPrefix(f, wire.MsgData.String()+":") {
			data = append(data, f)
		} else {
			ctl = append(ctl, f)
		}
	}
	sort.Strings(ctl)
	if multiset {
		sort.Strings(data)
	}
	return strings.Join(append(ctl, data...), " ")
}

func (l *frameLog) options() *transport.Options {
	return &transport.Options{Order: cdr.NativeOrder, FrameHook: l.hook}
}

// frameCase is one invocation whose frame schedule is pinned.
type frameCase struct {
	name      string
	method    Method
	multiport bool      // export with per-rank data endpoints
	spec      dist.Spec // server-side argument template
	compress  bool      // negotiate compression with PolicyAlways
	chunk     int       // BindOptions.StreamChunkElems
	sharded   bool      // route through InvokeSharded
	op        string
	n         int
}

// seededField fills s with a smooth field drawn at a fixed seed: smooth so
// the compressed case exercises the codec, seeded so its encoded sizes are
// reproducible.
func seededField(s *dseq.Seq[float64], seed int64) {
	r := rand.New(rand.NewSource(seed))
	base, step := r.Float64()*100, 0.25+r.Float64()
	s.FillFunc(func(g int) float64 { return base + step*float64(g) })
}

// goldenFrames is the frame schedule of every case: per client rank, the
// frames that rank received in order (Reply and reply Data frames), and the
// frames every server rank received (Request and request Data frames).
// Multi-port schedules race across connections and compare as multisets.
var goldenFrames = map[string]string{
	"oneshot": "client0: Reply:8056\n" +
		"client1: \n" +
		"server: Request:8184",
	"streamed-raw": "client0: Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Reply:44\n" +
		"client1: \n" +
		"server: Request:176 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072",
	"streamed-raw-axpy": "client0: Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Reply:60\n" +
		"client1: \n" +
		"server: Request:232 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072 Data:1072",
	"streamed-always": "client0: Data:920 Data:897 Data:888 Data:869 Data:874 Data:889 Data:867 Data:881 Reply:44\n" +
		"client1: \n" +
		"server: Request:176 Data:911 Data:872 Data:878 Data:855 Data:856 Data:858 Data:902 Data:846",
	"multiport-in": "client0: Reply:52\n" +
		"client1: \n" +
		"server: Request:156 Data:2048 Data:2048 Data:4048",
	"multiport-inout": "client0: Data:2048 Data:2048 Reply:44\n" +
		"client1: Data:4048\n" +
		"server: Request:172 Data:2048 Data:2048 Data:4048",
	"multiport-out": "client0: Data:1600 Data:1608 Reply:44\n" +
		"client1: Data:3152\n" +
		"server: Request:144 Data:40 Data:40 Data:40 Data:40",
	"sharded": "client0: Reply:8248\n" +
		"client1: \n" +
		"server: Request:8376",
}

// TestFrameSchedule pins the exact wire traffic of each transfer mode: a
// refactor of the transfer engine must leave frame counts, frame types and
// body sizes untouched.
func TestFrameSchedule(t *testing.T) {
	const cRanks, sRanks = 2, 2
	props := dist.Proportions{P: []int{1, 3}}
	cases := []frameCase{
		{name: "oneshot", method: Centralized, op: "scale", n: 1000},
		{name: "streamed-raw", method: Centralized, chunk: 128, op: "scale", n: 1024},
		{name: "streamed-raw-axpy", method: Centralized, chunk: 128, op: "axpy", n: 640},
		{name: "streamed-always", method: Centralized, chunk: 128, compress: true, op: "scale", n: 1024},
		{name: "multiport-in", method: Multiport, multiport: true, spec: props, op: "sum", n: 1000},
		{name: "multiport-inout", method: Multiport, multiport: true, spec: props, op: "scale", n: 1000},
		{name: "multiport-out", method: Multiport, multiport: true, spec: props, op: "iota", n: 777},
		{name: "sharded", method: Centralized, chunk: 128, sharded: true, op: "scale", n: 1024},
	}
	for _, fc := range cases {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			srvLog := &frameLog{}
			tc := startCluster(t, sRanks, fc.multiport, fc.spec, func(o *ExportOptions) {
				o.Server.Transport = srvLog.options()
				if fc.compress {
					o.Compression = zcodec.MaskAll
					o.CompressionPolicy = zcodec.PolicyAlways
				}
			})
			cliLogs := make([]*frameLog, cRanks)
			for i := range cliLogs {
				cliLogs[i] = &frameLog{}
			}
			w := rts.NewWorld(cRanks, rts.Options{RecvTimeout: testTimeout})
			defer w.Close()
			err := w.Run(func(c *rts.Comm) error {
				opts := BindOptions{
					Method: fc.method, Timeout: testTimeout,
					StreamChunkElems: fc.chunk,
					Transport:        cliLogs[c.Rank()].options(),
				}
				if fc.compress {
					opts.Compression = zcodec.MaskAll
					opts.CompressionPolicy = zcodec.PolicyAlways
				}
				if fc.sharded {
					opts.Sharding = ShardingOptions{Enabled: true, Idempotent: true}
				}
				b, err := SPMDBind(c, "example", tc.ns.Addr(), opts)
				if err != nil {
					return err
				}
				defer b.Close()
				if err := c.Barrier(); err != nil {
					return err
				}
				cliLogs[c.Rank()].armed.Store(true)
				if c.Rank() == 0 {
					srvLog.armed.Store(true)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := frameInvoke(c, b, fc); err != nil {
					return err
				}
				cliLogs[c.Rank()].armed.Store(false)
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					srvLog.armed.Store(false)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for r, l := range cliLogs {
				got = append(got, fmt.Sprintf("client%d: %s", r, l.render(fc.multiport)))
			}
			got = append(got, "server: "+srvLog.renderServer(fc.multiport))
			if g, want := strings.Join(got, "\n"), goldenFrames[fc.name]; g != want {
				t.Errorf("frame schedule changed:\n got:\n%s\nwant:\n%s", g, want)
			}
		})
	}
}

// frameInvoke runs one invocation of the case and checks its result, so the
// pinned schedule is also a working one.
func frameInvoke(c *rts.Comm, b *Binding, fc frameCase) error {
	mk := func(n int, seed int64) (*dseq.Seq[float64], error) {
		s, err := dseq.New(c, dseq.Float64, n, nil)
		if err != nil {
			return nil, err
		}
		seededField(s, seed)
		return s, nil
	}
	switch fc.op {
	case "scale":
		arr, err := mk(fc.n, 1)
		if err != nil {
			return err
		}
		before, err := arr.Collect()
		if err != nil {
			return err
		}
		args := []DistArg{InOutSeq(arr)}
		if fc.sharded {
			_, err = b.InvokeSharded("scale", []byte("k0"), scaleScalars(3), args)
		} else {
			_, err = b.Invoke("scale", scaleScalars(3), args)
		}
		if err != nil {
			return err
		}
		after, err := arr.Collect()
		if err != nil {
			return err
		}
		for i := range after {
			if after[i] != 3*before[i] {
				return fmt.Errorf("scale element %d holds %v, want %v", i, after[i], 3*before[i])
			}
		}
	case "axpy":
		x, err := mk(fc.n, 2)
		if err != nil {
			return err
		}
		y, err := mk(fc.n, 3)
		if err != nil {
			return err
		}
		e := ScalarEncoder()
		e.WriteDouble(2)
		if _, err := b.Invoke("axpy", e.Bytes(), []DistArg{InSeq(x), InOutSeq(y)}); err != nil {
			return err
		}
	case "sum":
		arr, err := mk(fc.n, 4)
		if err != nil {
			return err
		}
		if _, err := b.Invoke("sum", nil, []DistArg{InSeq(arr)}); err != nil {
			return err
		}
	case "iota":
		arr, err := dseq.New(c, dseq.Float64, 0, nil)
		if err != nil {
			return err
		}
		e := ScalarEncoder()
		e.WriteLong(int32(fc.n))
		if _, err := b.Invoke("iota", e.Bytes(), []DistArg{OutSeq(arr)}); err != nil {
			return err
		}
		if arr.Len() != fc.n {
			return fmt.Errorf("iota returned %d elements, want %d", arr.Len(), fc.n)
		}
	default:
		return fmt.Errorf("unknown op %q", fc.op)
	}
	return nil
}
