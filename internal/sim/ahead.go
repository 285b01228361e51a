package sim

import (
	"sync"

	"repro/internal/pipeline"
)

// Run-ahead: the live interpreter stream on a goroutine of its own. The
// timing model never feeds anything back into the correct-path stream,
// so the interpreter can retire instructions ahead of the engine that
// consumes them and the two overlap on two CPUs.

const (
	// aheadChunk is how many retired instructions the producer hands
	// over at a time: a channel operation per chunk, not per slot.
	aheadChunk = 2048
	// aheadChunks is how many chunks circulate between producer and
	// consumer (~80 KB each): how far the producer may run ahead.
	aheadChunks = 4
)

// aheadBatch is one chunk of records, each as cpuStream.step returns
// it. Decode entries are never written once added, so an entry pointer
// stays valid (and race-free to read) after the table's backing array
// grows; the addresses alias the interpreter's never-reused arena. The
// producer's last batch has end set and carries the interpreter's error
// (nil at HLT) after its records, so the consumer meets it at the same
// slot an inline stream would.
type aheadBatch struct {
	recs []pipeline.Rec
	end  bool
	err  error
}

// batchPool recycles the batches of stopped streams, cleared so a pooled
// batch pins no interpreter arena or decode table.
var batchPool = sync.Pool{
	New: func() any { return &aheadBatch{recs: make([]pipeline.Rec, 0, aheadChunk)} },
}

// aheadStream serves a cpuStream that a producer goroutine runs ahead
// of the engine. Batches circulate through full and free, each sized to
// hold every batch, so only the producer waiting for a free batch and
// the consumer waiting for a full one ever block.
type aheadStream struct {
	full, free chan *aheadBatch
	quit       chan struct{} // closed by stop
	exited     chan struct{} // closed once the producer has returned its token
	cur        *aheadBatch   // the batch being consumed
	pos        int
	err        error
}

// runAhead starts a producer for s when the process-wide semaphore has
// a free token, and otherwise returns s itself to run inline. Like every
// nested fan-out it only TryAcquires, so it never waits on a token. The
// caller must stop a returned *aheadStream.
func runAhead(s *cpuStream) slotSource {
	sem := acquireSem()
	if !sem.TryAcquire() {
		return s
	}
	a := &aheadStream{
		full:   make(chan *aheadBatch, aheadChunks),
		free:   make(chan *aheadBatch, aheadChunks),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	for range aheadChunks - 1 {
		a.free <- batchPool.Get().(*aheadBatch)
	}
	// The consumer starts on an empty batch; its first NextInto recycles it.
	a.cur = batchPool.Get().(*aheadBatch)
	go func() {
		defer close(a.exited)
		defer sem.Release()
		a.produce(s)
	}()
	return a
}

// produce steps the interpreter into free batches until the program
// ends, fails, or stop is called.
func (a *aheadStream) produce(s *cpuStream) {
	for {
		var b *aheadBatch
		select {
		case b = <-a.free:
		case <-a.quit:
			return
		}
		b.recs = b.recs[:0]
		for len(b.recs) < cap(b.recs) {
			d, nextPC, addrs, ok := s.step()
			if !ok {
				b.end, b.err = true, s.err
				a.full <- b
				return
			}
			b.recs = append(b.recs, pipeline.Rec{Entry: d, NextPC: nextPC, MemAddrs: addrs})
		}
		a.full <- b
	}
}

// NextInto copies the next record into r, as cpuStream.NextInto fills
// it from the instruction it retires.
func (a *aheadStream) NextInto(r *pipeline.Rec) bool {
	for a.pos == len(a.cur.recs) {
		if a.cur.end {
			a.err = a.cur.err
			return false
		}
		a.free <- a.cur
		a.cur, a.pos = <-a.full, 0
	}
	*r = a.cur.recs[a.pos]
	a.pos++
	return true
}

// Err reports the interpreter error once the consumer has reached it.
func (a *aheadStream) Err() error { return a.err }

// stop ends the producer, wherever it is, waits until it has returned
// its token, and pools the batches, which are then all in the channels
// or current: the producer holds none once it has exited. The stream
// must not be read again.
func (a *aheadStream) stop() {
	close(a.quit)
	<-a.exited
	putBatch(a.cur)
	a.cur = nil
	for range aheadChunks - 1 {
		select {
		case b := <-a.full:
			putBatch(b)
		case b := <-a.free:
			putBatch(b)
		}
	}
}

func putBatch(b *aheadBatch) {
	clear(b.recs[:cap(b.recs)])
	b.recs, b.end, b.err = b.recs[:0], false, nil
	batchPool.Put(b)
}
