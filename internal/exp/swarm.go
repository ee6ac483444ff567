package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

// SwarmConfig describes a massive fan-in experiment: Clients concurrent
// client bindings hammering one orb server through admission control, with
// the bindings multiplexed over SharedConns connections (the orb client
// demultiplexes replies by request id, so thousands of logical clients ride
// a handful of sockets — the fan-in shape the connection-scale refactor
// exists for).
type SwarmConfig struct {
	// Clients is the number of concurrent logical clients (each one is a
	// goroutine issuing RequestsPerClient sequential invocations).
	Clients int
	// RequestsPerClient is each client's sequential request count.
	RequestsPerClient int
	// SharedConns is how many client engines (one connection each) the
	// swarm multiplexes over; 0 defaults to one engine per 256 clients
	// (minimum 1).
	SharedConns int
	// Server configures the server under test; the zero value uses the
	// server defaults. Metrics is wired automatically when unset so the
	// report can read the dispatch-latency histogram.
	Server orb.ServerOptions
	// WorkDelay is the servant's simulated per-request work.
	WorkDelay time.Duration
	// PayloadBytes is the echoed argument payload size.
	PayloadBytes int
	// Timeout bounds each invocation; 0 defaults to 30s.
	Timeout time.Duration
}

// SwarmReport is what a swarm run measured and proved.
type SwarmReport struct {
	// Completed, Shed and Failed partition every issued request: replies
	// received, TRANSIENT refusals from admission control, and everything
	// else (timeouts, broken connections).
	Completed uint64
	Shed      uint64
	Failed    uint64
	Elapsed   time.Duration

	// BaseGoroutines and PeakGoroutines bracket the run: the refactor's
	// bound is Peak - Base = O(Clients) for the driver goroutines themselves
	// plus O(SharedConns + MaxInFlight) for the whole orb stack — never
	// O(outstanding requests).
	BaseGoroutines int
	PeakGoroutines int

	// ServerStats is the server's own account of the run (taken at peak for
	// Conns/Workers ceilings, before shutdown for the counters).
	ServerStats orb.ServerStats
	// PeakWorkers and PeakConns are the high-water marks observed while the
	// swarm was in full flight.
	PeakWorkers int
	PeakConns   int

	// P50 and P99 are server-side request latency quantiles (arrival to
	// reply written, queue wait included) from the orb.server.dispatch_ns
	// histogram; conservative upper bounds (power-of-two buckets).
	P50, P99 time.Duration

	// PoolOutstanding is the transport frame-pool balance delta across the
	// run: borrows minus returns attributable to the swarm. Zero after
	// drain means no frame leaked.
	PoolOutstanding int64
}

func (r SwarmReport) String() string {
	return fmt.Sprintf(
		"swarm: %d ok, %d shed, %d failed in %v\n"+
			"  goroutines: base %d peak %d (delta %d)\n"+
			"  server: peak %d conns, %d workers; dispatch p50 %v p99 %v\n"+
			"  frame pool outstanding after drain: %+d",
		r.Completed, r.Shed, r.Failed, r.Elapsed.Round(time.Millisecond),
		r.BaseGoroutines, r.PeakGoroutines, r.PeakGoroutines-r.BaseGoroutines,
		r.PeakConns, r.PeakWorkers, r.P50, r.P99,
		r.PoolOutstanding)
}

// RunSwarm executes the fan-in experiment: start a server, aim Clients
// concurrent invokers at it over SharedConns multiplexed connections, let
// every request resolve (reply or TRANSIENT shed), drain everything, and
// report the admission accounting, latency quantiles, and the goroutine and
// frame-pool high-water marks that prove the engine stays bounded.
func RunSwarm(cfg SwarmConfig) (SwarmReport, error) {
	if cfg.Clients < 1 || cfg.RequestsPerClient < 1 {
		return SwarmReport{}, fmt.Errorf("exp: invalid swarm config %+v", cfg)
	}
	nconns := cfg.SharedConns
	if nconns < 1 {
		nconns = (cfg.Clients + 255) / 256
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	reg := cfg.Server.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		cfg.Server.Metrics = reg
	}
	poolBase := transport.PoolOutstanding()
	base := runtime.NumGoroutine()

	srv, err := orb.NewServerOpts("127.0.0.1:0", cfg.Server)
	if err != nil {
		return SwarmReport{}, err
	}
	key := []byte("swarm-object")
	srv.Register(key, echoSleepServant(cfg.WorkDelay))

	clients := make([]*orb.Client, nconns)
	for i := range clients {
		c := orb.NewClient()
		c.Timeout = timeout
		c.Principal = fmt.Sprintf("swarm/%d", i)
		clients[i] = c
	}

	var report SwarmReport
	report.BaseGoroutines = base

	// Peak sampler: goroutine count and server gauges while the swarm is in
	// full flight.
	var peakG, peakWorkers, peakConns atomic.Int64
	sampleStop := make(chan struct{})
	var samplerWg sync.WaitGroup
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-t.C:
				if n := int64(runtime.NumGoroutine()); n > peakG.Load() {
					peakG.Store(n)
				}
				st := srv.Stats()
				if int64(st.Workers) > peakWorkers.Load() {
					peakWorkers.Store(int64(st.Workers))
				}
				if int64(st.Conns) > peakConns.Load() {
					peakConns.Store(int64(st.Conns))
				}
			}
		}
	}()

	args := orb.NewArgEncoder()
	args.WriteOctets(make([]byte, cfg.PayloadBytes))
	payload := args.Bytes()

	var completed, shedCount, failed atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		c := clients[i%nconns]
		go func() {
			defer wg.Done()
			for r := 0; r < cfg.RequestsPerClient; r++ {
				_, err := c.InvokeAddr(srv.Addr(), key, "echo", payload, false)
				switch {
				case err == nil:
					completed.Add(1)
				case orb.IsTransient(err):
					shedCount.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	close(sampleStop)
	samplerWg.Wait()

	// A worker writes its reply before it leaves the in-flight gauge, so the
	// last client can return a moment before the gauges settle.
	settleInt64(func() int64 { st := srv.Stats(); return int64(st.InFlight + st.Queued) }, 5*time.Second)
	report.ServerStats = srv.Stats()
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["orb.server.dispatch_ns"]; ok && h.Count > 0 {
		report.P50 = reg.Histogram("orb.server.dispatch_ns").Quantile(0.50)
		report.P99 = reg.Histogram("orb.server.dispatch_ns").Quantile(0.99)
	}

	// Drain: clients first (their conns stop the server's serve loops), then
	// the server.
	for _, c := range clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = srv.Shutdown(ctx)
	cancel()

	report.Completed = completed.Load()
	report.Shed = shedCount.Load()
	report.Failed = failed.Load()
	report.PeakGoroutines = int(peakG.Load())
	report.PeakWorkers = int(peakWorkers.Load())
	report.PeakConns = int(peakConns.Load())
	report.PoolOutstanding = settleInt64(func() int64 { return transport.PoolOutstanding() - poolBase }, 5*time.Second)
	return report, err
}

// echoSleepServant simulates delay per request and echoes its argument
// payload.
func echoSleepServant(delay time.Duration) orb.Servant {
	return orb.ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		if delay > 0 {
			time.Sleep(delay)
		}
		b, err := in.ReadOctets()
		if err != nil {
			return err
		}
		out.WriteOctets(b)
		return nil
	})
}

// settleInt64 polls v until it reaches zero or the window expires, returning
// the final value; asynchronous teardown (read loops releasing their last
// frame) needs a moment after Close returns.
func settleInt64(v func() int64, window time.Duration) int64 {
	deadline := time.Now().Add(window)
	for {
		d := v()
		if d <= 0 || time.Now().After(deadline) {
			return d
		}
		time.Sleep(2 * time.Millisecond)
	}
}
