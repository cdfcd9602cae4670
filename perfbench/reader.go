package main

import (
	"runtime"
	"time"
)

// readOp is one read a client sends. do performs it and reports
// whether it succeeded.
type readOp struct {
	Name string
	do   func() bool
}

// poll is what a client sends on one tick: its reads, back to back.
type poll []readOp

// reader is one polling client: on every tick it sends one poll's
// reads, each as soon as the previous one returns, then waits think
// and sends the next poll, cycling through its polls in order. A
// read's latency runs from when it is sent to when it returns.
type reader struct {
	think time.Duration
	polls []poll
	tr    *tracer

	LatMS  []float64 // per read, send to completion
	LagMS  []float64 // per poll, how much later than think it was sent
	Failed int64
}

func newReader(think time.Duration, polls []poll, tr *tracer) *reader {
	return &reader{think: think, polls: polls, tr: tr}
}

// run sends polls until stop is closed (when stop is non-nil) or n
// polls have been sent (when n > 0).
func (r *reader) run(stop <-chan struct{}, n int) {
	var timer *time.Timer
	if r.think > 0 {
		timer = time.NewTimer(r.think)
		defer timer.Stop()
	}
	last := time.Now()
	for i := 0; n <= 0 || i < n; i++ {
		if timer != nil {
			timer.Reset(r.think)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else if stop != nil {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		r.LagMS = append(r.LagMS, durMS(sent.Sub(last)-r.think))
		for _, op := range r.polls[i%len(r.polls)] {
			t0 := time.Now()
			id := r.tr.begin(op.Name, 0)
			ok := op.do()
			r.tr.end(id)
			last = time.Now()
			if !ok {
				r.Failed++
			}
			r.LatMS = append(r.LatMS, durMS(last.Sub(t0)))
		}
	}
}

// readBackToBack sends cycles rounds of polls, each read as soon as the
// previous one returns, counts the reads in out and returns their
// latencies. It first collects the garbage the timed passes left, so
// the reads do not share the processors with that collection.
func readBackToBack(cycles int, polls []poll, out *outcome) []float64 {
	runtime.GC()
	rd := newReader(0, polls, nil)
	rd.run(nil, cycles*len(polls))
	out.Attempted += int64(len(rd.LatMS))
	out.Failed += rd.Failed
	return rd.LatMS
}
