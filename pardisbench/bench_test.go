package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

func TestFieldIsDeterministic(t *testing.T) {
	a, b := field(7, 4096), field(7, 4096)
	c := field(8, 4096)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 element %d: %v then %v", i, a[i], b[i])
		}
		if a[i] != float64(int64(a[i])) || transform(a[i]+offset(4095)) >= 1<<53 {
			t.Fatalf("element %d = %v is not an exactly transformable integer", i, a[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 generated the same field")
	}
}

func TestCheckSlotFindsWrongElement(t *testing.T) {
	want := field(1, 100)
	ivs := []dist.Interval{{Start: 10, Len: 20}, {Start: 50, Len: 5}}
	local := make([]float64, 25)
	fillSlot(local, ivs, want, 3)
	if bad, err := checkSlot(local, ivs, want, 3, identity); bad != 0 {
		t.Fatalf("fresh slot: %d wrong: %v", bad, err)
	}
	if bad, _ := checkSlot(local, ivs, want, 4, identity); bad != 25 {
		t.Fatalf("slot of invocation 3 checked as 4: %d wrong, want 25", bad)
	}
	for i := range local {
		local[i] = transform(local[i])
	}
	local[21] = -local[21] // global index 51
	bad, err := checkSlot(local, ivs, want, 3, transform)
	if bad != 1 || err == nil || !strings.Contains(err.Error(), "element 51 ") {
		t.Fatalf("one flipped element: %d wrong, %v", bad, err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	if p := percentile(s, 0.5); p != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", p)
	}
	if p := percentile(s, 0.9); p != 90 {
		t.Errorf("p90 of 1..100 = %d, want 90", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("p50 of nothing = %d", p)
	}
}

// sink discards writes and serves reads of zeros, so the throttle alone
// sets the pace.
type sink struct{}

func (sink) Read(p []byte) (int, error)  { return len(p), nil }
func (sink) Write(p []byte) (int, error) { return len(p), nil }
func (sink) Close() error                { return nil }

func TestThrottlePacesBothDirections(t *testing.T) {
	const rate = 64 << 20
	const total = 4 << 20 // 62.5 ms at the rate
	want := time.Duration(float64(total) / rate * float64(time.Second))
	th := newThrottle(sink{}, rate)
	buf := make([]byte, 64<<10)
	for _, dir := range []struct {
		name string
		f    func([]byte) (int, error)
	}{{"write", th.Write}, {"read", th.Read}} {
		start := time.Now()
		for n := 0; n < total; n += len(buf) {
			if _, err := dir.f(buf); err != nil {
				t.Fatal(err)
			}
		}
		got := time.Since(start)
		if got < want*9/10 || got > want*3/2 {
			t.Errorf("%s of %d bytes at %d B/s took %v, want about %v", dir.name, total, rate, got, want)
		}
	}
}

func TestAttributionPartitionsInvokeSpan(t *testing.T) {
	span := func(p obs.Phase, start, dur int64) obs.Span { return obs.Span{Phase: p, Start: start, Dur: dur} }
	ts := &tokenSpans{
		invoke: span(obs.PhaseInvoke, 0, 100), haveInvoke: true,
		phases: []obs.Span{
			span(obs.PhaseSendRecv, 10, 70), // encloses the accumulated gather
			span(obs.PhaseGather, 10, 30),
			span(obs.PhasePack, 5, 10), // overlaps gather; pack ranks first
			span(obs.PhaseScatter, 85, 10),
		},
	}
	var a attribution
	a.add(ts)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	want := map[obs.Phase]int64{obs.PhasePack: 10, obs.PhaseGather: 25, obs.PhaseSendRecv: 40, obs.PhaseScatter: 10}
	for p, v := range want {
		if a.self[p] != v {
			t.Errorf("%v self = %d, want %d", p, a.self[p], v)
		}
	}
	if a.unattributed != 15 {
		t.Errorf("unattributed = %d, want 15", a.unattributed)
	}
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and traced,
// and checks that outputs verified and the result line is well formed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "0.4", "--trace", trace}, &out)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: %+v", w.name, trace, res)
			}
			if trace == "0" && res.Metrics["inv_p50_ms"].Value <= 0 {
				t.Fatalf("%s: no latency in %v", w.name, res.Metrics)
			}
			if trace == "1" && res.Metrics["transport.pool_outstanding"].Value != 0 {
				t.Fatalf("%s: frames outstanding", w.name)
			}
		}
	}
}

func TestWindowsCutAtBatchBoundaries(t *testing.T) {
	t0 := time.Now()
	var tl tally
	for i, at := range []time.Duration{0, 900, 1800, 2100, 3000, 4300, 4400} {
		tl.lat = append(tl.lat, time.Duration(i+1))
		tl.marks = append(tl.marks, mark{at: t0.Add(at * time.Millisecond), n: len(tl.lat), cpu: at})
	}
	ws := tl.windows(2 * time.Second)
	// Cuts at 2100 (first boundary 2 s after 0) and 4300; 4400 is a short tail.
	if len(ws) != 2 || len(ws[0].lat) != 3 || len(ws[1].lat) != 2 || ws[1].dur != 2200*time.Millisecond {
		t.Fatalf("windows = %+v", ws)
	}
	if one := tl.windows(time.Minute); len(one) != 1 || len(one[0].lat) != 6 {
		t.Fatalf("a loop shorter than the span should be one window, got %+v", one)
	}
	if m := medianFloat([]float64{3, 1, 2, 10}); m != 2 {
		t.Fatalf("medianFloat = %v, want 2", m)
	}
}
