package distal

import "testing"

func TestRegistryStatsCounting(t *testing.T) {
	reg := NewRegistry()
	GenerateStandardKernels(reg)
	base := reg.Stats()

	reg.Lookup("spmv", CSR, CPUThread)
	reg.Lookup("spmv", CSR, CPUThread)
	reg.Lookup("spmv", DenseMatrix, CPUThread) // miss
	s := reg.Stats()
	if s.Hits-base.Hits != 2 {
		t.Errorf("hits advanced by %d, want 2", s.Hits-base.Hits)
	}
	if s.Misses-base.Misses != 1 {
		t.Errorf("misses advanced by %d, want 1", s.Misses-base.Misses)
	}
	if s.Compiles != 0 {
		t.Errorf("kernels are compiled ahead of time only, got %d compiles", s.Compiles)
	}
}

// TestStandardOneKernelPerSlot pins the registry census: Standard holds
// 16 kernels under 16 keys (TestStandardRegistryComplete names the
// slots), and a second registration into a slot replaces the kernel
// rather than adding a variant beside it.
func TestStandardOneKernelPerSlot(t *testing.T) {
	if n, keys := Standard.Stats().Variants, len(Standard.Keys()); n != 16 || keys != 16 {
		t.Fatalf("Standard holds %d kernels under %d keys, want 16 and 16", n, keys)
	}
	reg := NewRegistry()
	GenerateStandardKernels(reg)
	reg.Register("spmv", CSR, reg.MustLookup("spmv", CSR, CPUThread))
	if n := reg.Stats().Variants; n != 16 {
		t.Fatalf("re-registering a slot left %d kernels, want 16", n)
	}
}
