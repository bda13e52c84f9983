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

// SetStorageReuse turns the runtime's reuse of destroyed regions' and
// snapshots' storage on (the default) or off (see storage.go).
func SetStorageReuse(rt *Runtime, on bool) { rt.store.off = !on }

// The storage pool's bounds.
const (
	MaxStorageSpares = maxStorageSpares
	MaxStorageBytes  = maxStorageBytes
)

// StorageReuses returns how many buffers the runtime's storage pool has
// handed out again.
func StorageReuses(rt *Runtime) int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.store.reused
}

// StorageSpares returns the number and bytes of the spare buffers the
// runtime holds.
func StorageSpares(rt *Runtime) (n int, bytes int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.store.spares), rt.store.bytes
}

// StreamOutcome and HaloStream expose the halo-shaped launch stream of
// the executor tests (haloStream) to the external differential test.
type StreamOutcome = streamOutcome

func HaloStream(rounds int) func(*Runtime, *StreamOutcome) []*Region { return haloStream(rounds) }
