package router

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultTransport wraps an http.RoundTripper with deterministic fault
// injection — the chaos half of the remote-shard test seam. Every knob is
// driven by one seeded RNG under a mutex, so a fixed seed yields the same
// fault schedule on every run (subject to request arrival order; chaos
// tests that need exact schedules serialize their calls). Faults compose:
// a request first matches blackholes, then the error rate, then the slow
// tail.
//
// All knobs can be changed at runtime (Blackhole/Clear and the setters are
// safe for concurrent use) — breaker-recovery tests inject a fault, watch
// the breaker open, clear the fault, and watch it close.
type FaultTransport struct {
	next http.RoundTripper

	mu         sync.Mutex
	rng        *rand.Rand
	errorRate  float64 // probability a request fails with a transport error
	slowEvery  int     // every Nth request waits slowBy (0 = off)
	slowBy     time.Duration
	slowCount  int64 // requests seen by the slow-path counter
	blackholes map[string]bool
	reqCount   atomic.Int64 // all requests entering RoundTrip
}

// NewFaultTransport wraps next (http.DefaultTransport when nil) with a
// fault injector seeded by seed — the same seed replays the same schedule.
func NewFaultTransport(next http.RoundTripper, seed int64) *FaultTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &FaultTransport{
		next:       next,
		rng:        rand.New(rand.NewSource(seed)),
		blackholes: make(map[string]bool),
	}
}

// SetErrorRate makes the given fraction of requests fail with a transport
// error (0 disables, 1 fails everything).
func (f *FaultTransport) SetErrorRate(p float64) {
	f.mu.Lock()
	f.errorRate = p
	f.mu.Unlock()
}

// SetSlowTail makes every n-th request (counted across all hosts) wait an
// additional d — the injected tail the hedging benchmark measures. n <= 0
// disables.
func (f *FaultTransport) SetSlowTail(n int, d time.Duration) {
	f.mu.Lock()
	f.slowEvery, f.slowBy = n, d
	f.mu.Unlock()
}

// Blackhole makes every request whose URL host contains host hang until its
// context expires — the worst failure mode: no error, no answer.
func (f *FaultTransport) Blackhole(host string) {
	f.mu.Lock()
	f.blackholes[host] = true
	f.mu.Unlock()
}

// Clear lifts every fault: error rate, slow tail, and all blackholes.
func (f *FaultTransport) Clear() {
	f.mu.Lock()
	f.errorRate = 0
	f.slowEvery, f.slowBy = 0, 0
	f.blackholes = make(map[string]bool)
	f.mu.Unlock()
}

// Requests returns the number of requests that entered the injector.
func (f *FaultTransport) Requests() int64 { return f.reqCount.Load() }

// RoundTrip applies the fault schedule, then delegates to the wrapped
// transport.
func (f *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.reqCount.Add(1)
	f.mu.Lock()
	blackholed := false
	for host := range f.blackholes {
		if strings.Contains(req.URL.Host, host) {
			blackholed = true
			break
		}
	}
	failNow := f.errorRate > 0 && f.rng.Float64() < f.errorRate
	var delay time.Duration
	if f.slowEvery > 0 {
		f.slowCount++
		if f.slowCount%int64(f.slowEvery) == 0 {
			delay = f.slowBy
		}
	}
	f.mu.Unlock()

	if blackholed {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if failNow {
		return nil, fmt.Errorf("fault injected: %s %s", req.Method, req.URL.Host)
	}
	if delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	return f.next.RoundTrip(req)
}

var _ http.RoundTripper = (*FaultTransport)(nil)
