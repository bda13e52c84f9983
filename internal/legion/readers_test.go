package legion

import (
	"testing"
	"time"
)

// TestReaderCompactionKeepsSimTime pins the simulated clock and the
// copy counters across 100 reads of one never-written region, one write
// and a fence, to the values the runtime produced when every reader
// stayed in the region state until the write (captured at 10833fe, the
// same pattern as solvers/testdata/cg8.launches). The heavy readers run
// first, on processor 3, and are fenced, so the next compaction folds
// exactly them; the light readers run on processor 1 and the writer on
// processor 0, so the writer's start is set by the heavy readers' finish
// time and by nothing else: losing it moves SimTime. One processor per
// phase keeps the mapper's copy decisions sequential and the counters
// exact.
func TestReaderCompactionKeepsSimTime(t *testing.T) {
	rt := newTestRuntime(t, 4)
	shared := rt.CreateFloat64("shared", make([]float64, 1<<12))
	nop := func(*TaskContext) {}
	issue := func(name string, proc int, priv Privilege, work int64) {
		l := rt.NewLaunch(name, 1, nop)
		l.AddWhole(shared, priv)
		l.MapPoints(func(int) int { return proc })
		l.SetWork(func(int) int64 { return work })
		l.Execute()
	}

	for i := 0; i < 50; i++ {
		issue("heavy-read", 3, ReadOnly, int64(1+i%3)<<22)
	}
	rt.Fence()
	for i := 0; i < 50; i++ {
		issue("light-read", 1, ReadOnly, 1<<8)
	}
	issue("write", 0, ReadWrite, 1<<12)
	issue("read-back", 2, ReadOnly, 1<<8)
	rt.Fence()

	const (
		wantSim    = time.Duration(15270316)
		wantCopies = 4
	)
	wantBytes := [4]int64{0, 32768, 98304, 0}
	wantCounts := [4]int64{0, 1, 3, 0}
	st := rt.Stats()
	var bytes, counts [4]int64
	for i := range bytes {
		bytes[i], counts[i] = st.CopiedBytes[i].Load(), st.CopyCounts[i].Load()
	}
	if got := rt.SimTime(); got != wantSim {
		t.Errorf("SimTime = %d, want %d", got, wantSim)
	}
	if got := st.Copies.Load(); got != wantCopies || bytes != wantBytes || counts != wantCounts {
		t.Errorf("copies = %d bytes %v counts %v, want %d %v %v", got, bytes, counts, wantCopies, wantBytes, wantCounts)
	}
}
