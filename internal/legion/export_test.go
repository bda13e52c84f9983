package legion

// ColoringOf exposes a partition's coloring to this package's external
// tests.
func ColoringOf(p *Partition) int64 { return p.coloring }

// MapCalls returns how many requirement mappings the runtime's mapper
// has made, one per requirement per point it did not skip.
func MapCalls(rt *Runtime) int64 { return rt.map_.calls }

// SetMappingSkip turns the mapper's skipping of unchanged mappings on
// (the default) or off (see Mapper.plan).
func SetMappingSkip(rt *Runtime, on bool) { rt.map_.noSkip = !on }

// StreamOutcome and HaloStream expose the halo-shaped launch stream of
// the executor tests (haloStream) to the external differential test.
type StreamOutcome = streamOutcome

func HaloStream(rounds int) func(*Runtime, *StreamOutcome) []*Region { return haloStream(rounds) }
