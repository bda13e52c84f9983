package legion

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Profile accumulates per-task-name statistics, the role Legion Prof
// plays for the real runtime: how many launches and points each
// operation issued and how much simulated processor time its kernels
// consumed. Profiling is always on (the bookkeeping is one map update
// per launch) and survives ResetMetrics so applications can inspect a
// whole run.
type Profile struct {
	mu           sync.Mutex
	entries      map[string]*ProfileEntry
	fusedGroups  int64 // fused launches issued
	fusedMembers int64 // original launches folded into them
}

// ProfileEntry is one task name's accumulated statistics.
type ProfileEntry struct {
	Name     string
	Launches int64
	Points   int64
	SimTime  time.Duration // summed point-task durations (not wall clock)
}

func newProfile() *Profile {
	return &Profile{entries: map[string]*ProfileEntry{}}
}

// record adds one issued launch: its points and their summed simulated
// durations under name, and, for a fused launch, its members.
func (p *Profile) record(name string, points int, simTime time.Duration, members int) {
	p.mu.Lock()
	e := p.entries[name]
	if e == nil {
		e = &ProfileEntry{Name: name}
		p.entries[name] = e
	}
	e.Launches++
	e.Points += int64(points)
	e.SimTime += simTime
	if members > 0 {
		p.fusedGroups++
		p.fusedMembers += int64(members)
	}
	p.mu.Unlock()
}

// FusedLaunchCounts returns how many fused launches were issued and how
// many original launches they replaced (members ≥ 2 × groups).
func (p *Profile) FusedLaunchCounts() (groups, members int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fusedGroups, p.fusedMembers
}

// Entries returns the profile sorted by descending simulated time.
func (p *Profile) Entries() []ProfileEntry {
	p.mu.Lock()
	out := make([]ProfileEntry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, *e)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].SimTime != out[j].SimTime {
			return out[i].SimTime > out[j].SimTime
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// String renders the profile as an aligned table.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %10s %10s %14s\n", "task", "launches", "points", "sim time")
	for _, e := range p.Entries() {
		fmt.Fprintf(&sb, "%-24s %10d %10d %14s\n", e.Name, e.Launches, e.Points, e.SimTime)
	}
	if g, m := p.FusedLaunchCounts(); g > 0 {
		fmt.Fprintf(&sb, "fusion: %d fused launches replaced %d originals\n", g, m)
	}
	return sb.String()
}

// Profile returns the runtime's task profile.
func (rt *Runtime) Profile() *Profile { return rt.profile }
