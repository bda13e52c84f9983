package prof

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TaskStat is one task name's totals in a Summary.
type TaskStat struct {
	Name     string
	Launches int64
	Points   int64
	SimTime  time.Duration // summed non-replay span durations (simulated, not wall clock)
}

// Summary is the per-task-name profile of every launch and span a Sink
// received — the table Legion Prof prints. The sink folds each record
// in as it arrives, so the summary counts events the rings have since
// dropped; a sink read only for its summary can be NewSink(1).
// Recovery replay issues no launch records and its spans are tagged
// Replay, so a recovered run sums the same as a clean one.
type Summary struct {
	Tasks        []TaskStat // descending SimTime, then Name
	FusedGroups  int64      // fused launches issued
	FusedMembers int64      // original launches folded into them
}

// task returns name's running totals, creating them on first sight.
// Callers hold s.mu.
func (s *Sink) task(name string) *TaskStat {
	st := s.tasks[name]
	if st == nil {
		st = &TaskStat{Name: name}
		s.tasks[name] = st
	}
	return st
}

// Summary returns the sink's per-task-name profile.
func (s *Sink) Summary() Summary {
	s.mu.Lock()
	sum := Summary{Tasks: make([]TaskStat, 0, len(s.tasks)), FusedGroups: s.fusedGroups, FusedMembers: s.fusedMembers}
	for _, st := range s.tasks {
		sum.Tasks = append(sum.Tasks, *st)
	}
	s.mu.Unlock()
	sort.Slice(sum.Tasks, func(i, j int) bool {
		a, b := sum.Tasks[i], sum.Tasks[j]
		if a.SimTime != b.SimTime {
			return a.SimTime > b.SimTime
		}
		return a.Name < b.Name
	})
	return sum
}

// String renders the summary as an aligned table, with a fusion line
// when any launch was fused.
func (m Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %10s %10s %14s\n", "task", "launches", "points", "sim time")
	for _, e := range m.Tasks {
		fmt.Fprintf(&sb, "%-24s %10d %10d %14s\n", e.Name, e.Launches, e.Points, e.SimTime)
	}
	if m.FusedGroups > 0 {
		fmt.Fprintf(&sb, "fusion: %d fused launches replaced %d originals\n", m.FusedGroups, m.FusedMembers)
	}
	return sb.String()
}
