package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// group runs functions on goroutines and keeps the first error, turning a
// panic into an error so that a fault anywhere below still ends the run
// through its cleanup (stopping the server, removing temporary files).
type group struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

func (g *group) run(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.fail(fmt.Errorf("panic: %v\n%s", r, debug.Stack()))
			}
		}()
		if err := f(); err != nil {
			g.fail(err)
		}
	}()
}

func (g *group) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = err
	}
}

// wait waits for every function and returns the first error.
func (g *group) wait() error {
	g.wg.Wait()
	return g.err
}

// outcome is what one operation reported besides success.
type outcome struct {
	hit   bool // answered from the cache or by joining an in-flight computation
	bytes int  // response body size (HTTP)
}

// target runs the operations of a workload against one layer's entry point.
type target interface {
	read(ctx context.Context, id int, r read) (outcome, error)
	update(ctx context.Context, id int, e [2]int) error
}

// opRec records one operation: when it ran relative to the pass start, and
// how it ended.
type opRec struct {
	done       bool
	start, end time.Duration
	err        error
	out        outcome
}

func (r opRec) ms() float64 { return float64(r.end-r.start) / 1e6 }

// limits ends a pass: after d when d > 0 (operations started before d run to
// completion), otherwise after exactly reads reads and updates updates.
type limits struct {
	d              time.Duration
	reads, updates int
}

// pass is the record of one closed-loop pass over a workload's sequence.
type pass struct {
	reads   []opRec // by position in the read sequence
	updates []opRec // by position in the insert sequence
	nReads  int     // reads issued: reads[:nReads] are done
	nUpds   int
	window  time.Duration // pass start to the last read's end
}

// drive runs a closed loop: readers callers each send the next read of the
// sequence as soon as their previous one returns, and a writer (when edges
// is non-empty) does the same with the inserts. Operation i of a sequence is
// always the same request, whoever sends it.
func drive(ctx context.Context, t target, readers int, reads []read, edges [][2]int, lim limits) (*pass, error) {
	p := &pass{reads: make([]opRec, len(reads)), updates: make([]opRec, len(edges))}
	maxReads, maxUpds := len(reads), len(edges)
	if lim.d <= 0 {
		if lim.reads > maxReads || lim.updates > maxUpds {
			return nil, fmt.Errorf("replay of %d reads and %d updates exceeds the sequence", lim.reads, lim.updates)
		}
		maxReads, maxUpds = lim.reads, lim.updates
	}
	start := time.Now()
	open := func() bool { return ctx.Err() == nil && (lim.d <= 0 || time.Since(start) < lim.d) }
	var next, nextUpd atomic.Int64
	var g group
	for c := 0; c < readers; c++ {
		g.run(func() error {
			for open() {
				i := int(next.Add(1)) - 1
				if i >= maxReads {
					return nil
				}
				rec := &p.reads[i]
				rec.start = time.Since(start)
				rec.out, rec.err = t.read(ctx, i, reads[i])
				rec.end = time.Since(start)
				rec.done = true
			}
			return nil
		})
	}
	if len(edges) > 0 {
		g.run(func() error {
			for open() {
				i := int(nextUpd.Add(1)) - 1
				if i >= maxUpds {
					return nil
				}
				rec := &p.updates[i]
				rec.start = time.Since(start)
				rec.err = t.update(ctx, i, edges[i])
				rec.end = time.Since(start)
				rec.done = true
			}
			return nil
		})
	}
	if err := g.wait(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Operations take ids in start order, so the done ones are a prefix.
	for _, r := range p.reads {
		if !r.done {
			break
		}
		p.nReads++
		if r.end > p.window {
			p.window = r.end
		}
	}
	for _, u := range p.updates {
		if !u.done {
			break
		}
		p.nUpds++
	}
	if lim.d > 0 && p.nReads == len(reads) {
		return nil, fmt.Errorf("the %d pre-generated reads ran out before %s", len(reads), lim.d)
	}
	return p, nil
}
