// Package cunumeric is the dense half of the reproduction: a distributed
// NumPy-style array library in the mold of cuNumeric [Bauer & Garland,
// SC'19], which Legate Sparse composes with. Arrays are backed by legion
// regions and every operation is launched through the constraint layer
// with alignment constraints only — exactly the adaptation §2.3/§4.1
// describe ("we modify the partitioning strategies within cuNumeric to
// use the constraint-based system").
//
// The package is deliberately unaware of the sparse library: the two
// compose only through shared regions, partitions, and the common
// mapper, which is the paper's central claim.
package cunumeric

import (
	"fmt"
	"math"

	"repro/internal/constraint"
	"repro/internal/legion"
	"repro/internal/machine"
)

// Array is a distributed one-dimensional array of float64.
type Array struct {
	rt     *legion.Runtime
	region *legion.Region
}

// Zeros creates an array of n zeros.
func Zeros(rt *legion.Runtime, n int64) *Array {
	return &Array{rt: rt, region: rt.CreateRegion("cn.array", n, legion.Float64)}
}

// FromSlice creates an array holding a copy of data.
func FromSlice(rt *legion.Runtime, data []float64) *Array {
	return &Array{rt: rt, region: rt.CreateFloat64("cn.array", data)}
}

// FromRegion wraps an existing float64 region as an array — the
// interoperation §3 highlights: sparse matrices are built from regions,
// so users can construct matrices out of cuNumeric arrays and vice versa.
func FromRegion(r *legion.Region) *Array {
	if r.Type() != legion.Float64 {
		panic(fmt.Sprintf("cunumeric: FromRegion needs float64, got %v", r.Type()))
	}
	return &Array{rt: r.Runtime(), region: r}
}

// Full creates an array of n copies of v.
func Full(rt *legion.Runtime, n int64, v float64) *Array {
	a := Zeros(rt, n)
	a.Fill(v)
	return a
}

// Arange creates [0, 1, ..., n-1].
func Arange(rt *legion.Runtime, n int64) *Array {
	a := Zeros(rt, n)
	t := constraint.NewTask(rt, "cn.arange", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] = float64(r.Lo + int64(k))
			}
		}
	})
	t.AddOutput(a.region)
	t.SetFusable()
	t.Execute()
	return a
}

// Random creates an array of deterministic pseudo-random values in
// [0, 1), computed per element from (seed, index) so the result is
// independent of the partitioning (a property NumPy programs rely on
// for reproducibility across machine sizes).
func Random(rt *legion.Runtime, n int64, seed uint64) *Array {
	a := Zeros(rt, n)
	t := constraint.NewTask(rt, "cn.random", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		s := math.Float64bits(tc.Scalar(0))
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] = Uniform01(s, uint64(r.Lo+int64(k)))
			}
		}
	})
	t.AddOutput(a.region)
	t.SetScalars(math.Float64frombits(seed)) // the seed's bits, carried unchanged
	t.SetFusable()
	t.Execute()
	return a
}

// Uniform01 is the element-wise deterministic generator (splitmix64).
func Uniform01(seed, i uint64) float64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// Normal returns a standard-normal deterministic variate for (seed, i).
func Normal(seed, i uint64) float64 {
	u1 := Uniform01(seed, 2*i)
	u2 := Uniform01(seed, 2*i+1)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Len returns the number of elements.
func (a *Array) Len() int64 { return a.region.Size() }

// Region exposes the backing region for cross-library composition.
func (a *Array) Region() *legion.Region { return a.region }

// Runtime returns the owning runtime.
func (a *Array) Runtime() *legion.Runtime { return a.rt }

// Destroy releases the array's region to the mapper's allocation pools.
func (a *Array) Destroy() { a.rt.Destroy(a.region) }

// ToSlice fences the runtime and returns a copy of the array's contents.
func (a *Array) ToSlice() []float64 {
	a.rt.Fence()
	out := make([]float64, a.Len())
	copy(out, a.region.Float64s())
	return out
}

// Fill sets every element to v.
func (a *Array) Fill(v float64) {
	t := constraint.NewTask(a.rt, "cn.fill", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		x := tc.Scalar(0)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] = x
			}
		}
	})
	t.AddOutput(a.region)
	t.SetScalars(v)
	t.SetFusable()
	t.Execute()
}

// Copy copies src into dst (dst = src). The arrays must be equal length.
func Copy(dst, src *Array) {
	t := constraint.NewTask(dst.rt, "cn.copy", func(tc *legion.TaskContext) {
		d, s := tc.Float64(0), tc.Float64(1)
		for _, r := range tc.Subspace(0).Rects() {
			copy(d[r.Lo:r.Hi+1], s[r.Lo:r.Hi+1])
		}
	})
	vd := t.AddOutput(dst.region)
	vs := t.AddInput(src.region)
	t.Align(vd, vs)
	t.SetFusable()
	t.Execute()
}

// binop launches dst = f(a, b) element-wise with alignment constraints.
func binop(name string, dst, a, b *Array, f func(x, y float64) float64) {
	t := constraint.NewTask(dst.rt, name, func(tc *legion.TaskContext) {
		d, av, bv := tc.Float64(0), tc.Float64(1), tc.Float64(2)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			as, bs := av[r.Lo : r.Hi+1][:len(dd)], bv[r.Lo : r.Hi+1][:len(dd)]
			for k := range dd {
				dd[k] = f(as[k], bs[k])
			}
		}
	})
	vd := t.AddOutput(dst.region)
	va := t.AddInput(a.region)
	vb := t.AddInput(b.region)
	t.Align(vd, va).Align(vd, vb)
	t.SetFusable()
	t.Execute()
}

// AddInto computes dst = a + b.
func AddInto(dst, a, b *Array) {
	binop("cn.add", dst, a, b, func(x, y float64) float64 { return x + y })
}

// SubInto computes dst = a - b.
func SubInto(dst, a, b *Array) {
	binop("cn.sub", dst, a, b, func(x, y float64) float64 { return x - y })
}

// MulInto computes dst = a * b element-wise.
func MulInto(dst, a, b *Array) {
	binop("cn.mul", dst, a, b, func(x, y float64) float64 { return x * y })
}

// DivInto computes dst = a / b element-wise.
func DivInto(dst, a, b *Array) {
	binop("cn.div", dst, a, b, func(x, y float64) float64 { return x / y })
}

// Add allocates and returns a + b.
func Add(a, b *Array) *Array { c := Zeros(a.rt, a.Len()); AddInto(c, a, b); return c }

// Sub allocates and returns a - b.
func Sub(a, b *Array) *Array { c := Zeros(a.rt, a.Len()); SubInto(c, a, b); return c }

// Scale multiplies the array by alpha in place.
func (a *Array) Scale(alpha float64) {
	t := constraint.NewTask(a.rt, "cn.scale", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		s := tc.Scalar(0)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] *= s
			}
		}
	})
	t.AddInOut(a.region)
	t.SetScalars(alpha)
	t.SetFusable()
	t.Execute()
}

// AddScalar adds alpha to every element in place.
func (a *Array) AddScalar(alpha float64) {
	t := constraint.NewTask(a.rt, "cn.adds", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		s := tc.Scalar(0)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] += s
			}
		}
	})
	t.AddInOut(a.region)
	t.SetScalars(alpha)
	t.SetFusable()
	t.Execute()
}

// AXPY computes y += alpha * x (the BLAS building block of every
// iterative solver in §5.2).
//
// AXPY is fusion-eligible: back-to-back AXPY/AXPBY/Copy chains — the
// "FusedAXPY" pattern every solver in internal/solvers emits — collapse
// into one fused launch inside the runtime's fusion window, paying a
// single launch-analysis charge and one pass through the launch path
// (at most one goroutine round-trip per point), with no solver rewrites.
func AXPY(alpha float64, x, y *Array) {
	t := constraint.NewTask(y.rt, "cn.axpy", func(tc *legion.TaskContext) {
		yv, xv := tc.Float64(0), tc.Float64(1)
		a := tc.Scalar(0)
		for _, r := range tc.Subspace(0).Rects() {
			ys := yv[r.Lo : r.Hi+1]
			xs := xv[r.Lo : r.Hi+1][:len(ys)]
			for k := range ys {
				ys[k] += a * xs[k]
			}
		}
	})
	vy := t.AddInOut(y.region)
	vx := t.AddInput(x.region)
	t.Align(vy, vx)
	t.SetScalars(alpha)
	t.SetFusable()
	t.Execute()
}

// AXPBY computes y = alpha*x + beta*y.
func AXPBY(alpha float64, x *Array, beta float64, y *Array) {
	t := constraint.NewTask(y.rt, "cn.axpby", func(tc *legion.TaskContext) {
		yv, xv := tc.Float64(0), tc.Float64(1)
		a, b := tc.Scalar(0), tc.Scalar(1)
		for _, r := range tc.Subspace(0).Rects() {
			ys := yv[r.Lo : r.Hi+1]
			xs := xv[r.Lo : r.Hi+1][:len(ys)]
			for k := range ys {
				ys[k] = a*xs[k] + b*ys[k]
			}
		}
	})
	vy := t.AddInOut(y.region)
	vx := t.AddInput(x.region)
	t.Align(vy, vx)
	t.SetScalars(alpha, beta)
	t.SetFusable()
	t.Execute()
}

// Apply computes dst = f(src) element-wise for an arbitrary pure
// function — the general unary ufunc. f must be side-effect free; it
// runs concurrently across point tasks.
func Apply(dst, src *Array, f func(float64) float64) {
	t := constraint.NewTask(dst.rt, "cn.apply", func(tc *legion.TaskContext) {
		d, s := tc.Float64(0), tc.Float64(1)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			ss := s[r.Lo : r.Hi+1][:len(dd)]
			for k := range dd {
				dd[k] = f(ss[k])
			}
		}
	})
	vd := t.AddOutput(dst.region)
	vs := t.AddInput(src.region)
	t.Align(vd, vs)
	t.SetFusable()
	t.Execute()
}

// Exp computes dst = e^src element-wise.
func Exp(dst, src *Array) { Apply(dst, src, math.Exp) }

// Sqrt computes dst = √src element-wise.
func Sqrt(dst, src *Array) { Apply(dst, src, math.Sqrt) }

// Abs computes dst = |src| element-wise.
func Abs(dst, src *Array) { Apply(dst, src, math.Abs) }

// Clamp limits every element of a to [lo, hi] in place.
func (a *Array) Clamp(lo, hi float64) {
	t := constraint.NewTask(a.rt, "cn.clamp", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		lo, hi := tc.Scalar(0), tc.Scalar(1)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k, v := range dd {
				if v < lo {
					dd[k] = lo
				} else if v > hi {
					dd[k] = hi
				}
			}
		}
	})
	t.AddInOut(a.region)
	t.SetScalars(lo, hi)
	t.SetFusable()
	t.Execute()
}

// RecipClamp computes dst[i] = 1 / max(src[i], 1): the per-row
// normalization factor for gradients accumulated over variable-length
// groups (mini-batch SGD with power-law sample counts).
func RecipClamp(dst, src *Array) {
	t := constraint.NewTask(dst.rt, "cn.recipclamp", func(tc *legion.TaskContext) {
		d, s := tc.Float64(0), tc.Float64(1)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k, v := range s[r.Lo : r.Hi+1][:len(dd)] {
				if v < 1 {
					v = 1
				}
				dd[k] = 1 / v
			}
		}
	})
	vd := t.AddOutput(dst.region)
	vs := t.AddInput(src.region)
	t.Align(vd, vs)
	t.SetFusable()
	t.Execute()
}

// Gather computes dst[k] = src[idx[k]] for an int64 index region aligned
// with dst; src's partition is the by-coordinate image of idx, so only
// the referenced elements move — the same mechanism as a SpMV's x
// operand.
func Gather(dst *Array, idx *legion.Region, src *Array) {
	if idx.Type() != legion.Int64 || idx.Size() != dst.Len() {
		panic("cunumeric: Gather needs an int64 index region aligned with dst")
	}
	t := constraint.NewTask(dst.rt, "cn.gather", func(tc *legion.TaskContext) {
		d, ix, s := tc.Float64(0), tc.Int64(1), tc.Float64(2)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k, j := range ix[r.Lo : r.Hi+1][:len(dd)] {
				dd[k] = s[j]
			}
		}
	})
	vd := t.AddOutput(dst.region)
	vi := t.AddInput(idx)
	vs := t.AddInput(src.region)
	t.Align(vd, vi)
	t.Image(vi, vs)
	t.Execute()
}

// Dot returns the future of a · b.
func Dot(a, b *Array) *legion.Future {
	t := constraint.NewTask(a.rt, "cn.dot", func(tc *legion.TaskContext) {
		av, bv := tc.Float64(0), tc.Float64(1)
		var s float64
		for _, r := range tc.Subspace(0).Rects() {
			as := av[r.Lo : r.Hi+1]
			bs := bv[r.Lo : r.Hi+1][:len(as)]
			for k := range as {
				s += as[k] * bs[k]
			}
		}
		tc.Reduce(s)
	})
	va := t.AddInput(a.region)
	vb := t.AddInput(b.region)
	t.Align(va, vb)
	t.SetOpClass(machine.Reduction)
	return t.Execute()
}

// Sum returns the future of the element sum.
func Sum(a *Array) *legion.Future {
	t := constraint.NewTask(a.rt, "cn.sum", func(tc *legion.TaskContext) {
		av := tc.Float64(0)
		var s float64
		for _, r := range tc.Subspace(0).Rects() {
			for _, v := range av[r.Lo : r.Hi+1] {
				s += v
			}
		}
		tc.Reduce(s)
	})
	t.AddInput(a.region)
	t.SetOpClass(machine.Reduction)
	return t.Execute()
}

// Norm returns the Euclidean norm of a (blocking, like
// numpy.linalg.norm).
func Norm(a *Array) float64 { return math.Sqrt(Dot(a, a).Get()) }

// MaxAbs returns max |a_i|, computed on the host after a fence (max is
// not a sum, so it cannot ride a reduction future), the way SciPy
// computes amax on materialized data. It blocks like Norm.
func MaxAbs(a *Array) float64 {
	a.rt.Fence()
	var m float64
	for _, v := range a.region.Float64s() {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}
