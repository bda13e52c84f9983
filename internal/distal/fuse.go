package distal

// Kernel fusion at the DISTAL layer: where the runtime's task-fusion
// window (internal/legion/fusion.go) merges whole index launches, this
// file composes the *generated loop nests themselves*, so a fused task
// can run several registry kernels back to back over one distributed
// tile without a second dispatch. A real DISTAL would emit the fused
// loop nest as source; here the composition reuses the closures the
// compiler already generated, which is semantically identical (each
// stage's stores are visible to the next stage because they share the
// operand storage).

import "fmt"

// Stage is one member of a composed kernel: a compiled kernel plus an
// optional argument rebinding. Bind maps the fused launch's Args to the
// Args this stage's kernel expects — renaming operands (the spmv "y"
// becomes the row_sum "A" input) or narrowing the tile. A nil Bind
// passes the fused Args through unchanged.
type Stage struct {
	K    *Kernel
	Bind func(a *Args) *Args
}

// ComposeKernels builds a single kernel that runs the given stages in
// order over the same distributed tile. All stages must target the same
// processor variety — fusing a CPU loop nest into a GPU kernel has no
// hardware analogue — and at least one stage is required.
//
// The composed kernel's Pattern is "composed" so profiles can tell fused
// dispatches apart.
func ComposeKernels(name string, stages ...Stage) *Kernel {
	if len(stages) == 0 {
		panic(fmt.Sprintf("distal: ComposeKernels(%q) with no stages", name))
	}
	target := stages[0].K.Target
	for _, s := range stages[1:] {
		if s.K.Target != target {
			panic(fmt.Sprintf("distal: ComposeKernels(%q): mixed targets %v and %v",
				name, target, s.K.Target))
		}
	}
	bound := func(s Stage, a *Args) *Args {
		if s.Bind != nil {
			return s.Bind(a)
		}
		return a
	}
	return &Kernel{
		Name:    name,
		Target:  target,
		Pattern: "composed",
		Exec: func(a *Args) {
			for _, s := range stages {
				s.K.Exec(bound(s, a))
			}
		},
	}
}
