package legion

import "sync"

// workItem is one point task bound to a processor, enqueued at Execute
// time in launch-sequence order and executed once its launch's
// dependencies resolve.
type workItem struct {
	ls    *launchState
	point int
}

// worker is the goroutine executing point tasks for one simulated
// processor. Items are appended in launch-sequence order (the
// application issues launches sequentially) and executed strictly in
// that order, each one waiting until its launch becomes ready.
//
// Strict program order per processor is deadlock-free: a launch's
// dependencies always have lower sequence numbers, so every point this
// one could wait on sits *earlier* in some queue, never later. The
// payoff is determinism — the modeled memory accounting and simulated
// timelines are identical across runs, which the benchmark harness and
// the OOM-driven minimum-resource search rely on.
type worker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []workItem
	stopped bool
	run_    func(ls *launchState, point int)
	fail    func(ls *launchState, point int, rec any)
}

func newWorker(run func(ls *launchState, point int), fail func(ls *launchState, point int, rec any)) *worker {
	w := &worker{run_: run, fail: fail}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue appends a point task; items must arrive in launch-sequence
// order (guaranteed by the application thread issuing launches
// sequentially).
func (w *worker) enqueue(ls *launchState, point int) {
	w.mu.Lock()
	w.queue = append(w.queue, workItem{ls: ls, point: point})
	w.mu.Unlock()
	w.cond.Signal()
}

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
		w.queue = w.queue[1:]
		w.mu.Unlock()
		w.exec(item)
	}
}

// exec runs one point task with a last-resort panic backstop: kernel
// panics are recovered inside runPoint (execPoint), so anything caught
// here is a runtime bookkeeping failure — the fail callback turns it
// into a sticky error and finalizes the point instead of killing the
// process.
func (w *worker) exec(item workItem) {
	defer func() {
		if r := recover(); r != nil && w.fail != nil {
			w.fail(item.ls, item.point, r)
		}
	}()
	w.run_(item.ls, item.point)
}

// stop shuts the worker down after outstanding work drains.
func (w *worker) stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.cond.Signal()
}
