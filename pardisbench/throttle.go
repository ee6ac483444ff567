package main

import (
	"io"
	"sync"
	"time"
)

// throttle paces a byte stream to a fixed rate in each direction, modelling
// the thin link of the thin-link-auto workload. Each direction keeps the
// time at which the link next falls idle; a transfer extends it by
// len/rate and sleeps off the debt. Idle time is not banked as burst credit.
type throttle struct {
	inner io.ReadWriteCloser
	bps   float64
	wmu   sync.Mutex
	wfree time.Time
	rmu   sync.Mutex
	rfree time.Time
}

func newThrottle(inner io.ReadWriteCloser, bytesPerSec int) *throttle {
	return &throttle{inner: inner, bps: float64(bytesPerSec)}
}

func (t *throttle) pace(mu *sync.Mutex, free *time.Time, n int) {
	if n <= 0 {
		return
	}
	d := time.Duration(float64(n) / t.bps * float64(time.Second))
	mu.Lock()
	now := time.Now()
	if free.Before(now) {
		*free = now
	}
	*free = free.Add(d)
	wait := free.Sub(now)
	mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

func (t *throttle) Write(b []byte) (int, error) {
	n, err := t.inner.Write(b)
	t.pace(&t.wmu, &t.wfree, n)
	return n, err
}

func (t *throttle) Read(b []byte) (int, error) {
	n, err := t.inner.Read(b)
	t.pace(&t.rmu, &t.rfree, n)
	return n, err
}

func (t *throttle) Close() error { return t.inner.Close() }
