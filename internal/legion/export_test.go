package legion

// ColoringOf exposes a partition's coloring to this package's external
// tests.
func ColoringOf(p *Partition) int64 { return p.coloring }
