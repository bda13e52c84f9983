package legion

import (
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// workItem is one point task bound to a processor, enqueued at Execute
// time in launch-sequence order and executed once its launch's
// dependencies resolve.
type workItem struct {
	ls    *launchState
	point int
}

// worker executes the point tasks of one simulated processor. Items are
// appended in launch-sequence order (the application issues launches
// sequentially) and executed strictly in that order, each one waiting
// until its launch becomes ready.
//
// Strict program order per processor is deadlock-free: a launch's
// dependencies always have lower sequence numbers, so every point this
// one could wait on sits *earlier* in some queue, never later. A worker
// only runs kernels: mapping, fault decisions and the simulated timeline
// were computed when the launch was issued (Runtime.mapLaunch).
//
// The order is a property of the processor, not of a goroutine: the
// worker's own goroutine drains the queue, and the application goroutine
// calls exec directly for a launch it may run itself (see
// Runtime.runsInline), which it does only while the processor is idle.
type worker struct {
	rt   *Runtime
	proc machine.ProcID

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []workItem
	stopped bool

	// outstanding counts points enqueued and not yet finished. Only the
	// application goroutine enqueues, so once it reads zero the processor
	// stays idle until the application itself gives it work.
	outstanding atomic.Int64

	// tc is the TaskContext every kernel on this processor runs against,
	// one point at a time.
	tc TaskContext
}

func newWorker(rt *Runtime, proc machine.ProcID) *worker {
	w := &worker{rt: rt, proc: proc}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue appends a point task; items must arrive in launch-sequence
// order (guaranteed by the application thread issuing launches
// sequentially).
func (w *worker) enqueue(ls *launchState, point int) {
	w.outstanding.Add(1)
	w.mu.Lock()
	w.queue = append(w.queue, workItem{ls: ls, point: point})
	w.mu.Unlock()
	w.cond.Signal()
}

// idle reports whether the processor has nothing queued and nothing
// running. Meaningful on the application goroutine only.
func (w *worker) idle() bool { return w.outstanding.Load() == 0 }

// wake re-checks the head item (called when some launch becomes ready).
// The signal is sent under w.mu: run tests the head's ready flag under
// the lock and then Waits, and a Signal slipping between those two
// steps would find no waiter and be lost.
func (w *worker) wake() {
	w.mu.Lock()
	w.cond.Signal()
	w.mu.Unlock()
}

// run processes the queue in order until stop is called and the queue
// drains.
func (w *worker) run() {
	for {
		w.mu.Lock()
		for {
			if len(w.queue) > 0 && w.queue[0].ls.ready.Load() {
				break
			}
			if w.stopped && len(w.queue) == 0 {
				w.mu.Unlock()
				return
			}
			w.cond.Wait()
		}
		item := w.queue[0]
		w.queue[0] = workItem{} // the backing array keeps no finished launch
		w.queue = w.queue[1:]
		w.mu.Unlock()
		w.exec(item)
		w.outstanding.Add(-1)
	}
}

// exec runs one point task with a last-resort panic backstop: kernel
// panics are recovered inside runPoint (execPoint), so anything caught
// here is a runtime bookkeeping failure — pointBackstop turns it into a
// sticky error and finalizes the point instead of killing the process.
func (w *worker) exec(item workItem) {
	defer func() {
		if r := recover(); r != nil {
			w.rt.pointBackstop(item.ls, item.point, r)
		}
	}()
	w.rt.runPoint(item.ls, item.point, w)
}

// stop shuts the worker down after outstanding work drains.
func (w *worker) stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.cond.Signal()
}
