package solvers

import (
	"math"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/legion"
)

// PCGJacobi solves SPD A x = b with conjugate gradient preconditioned
// by the inverse diagonal (scipy's cg with a diagonal LinearOperator M),
// the lightest preconditioner Legate Sparse programs reach for before
// multigrid.
func PCGJacobi(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	rt := a.Runtime()
	dinv := core.Diagonal(a)
	one := cunumeric.Full(rt, b.Len(), 1)
	cunumeric.DivInto(dinv, one, dinv)
	one.Destroy()
	defer dinv.Destroy()
	return PCGOn(regionSpace{a}, "pcg", b, func(z, r *cunumeric.Array) {
		cunumeric.MulInto(z, r, dinv)
	}, maxIter, tol)
}

// RKF45 integrates y' = f(t, y) from t0 to t1 with the adaptive
// Runge-Kutta-Fehlberg 4(5) method — the fixed-tolerance analog of
// scipy.integrate.solve_ivp(method='RK45') that completes the ported
// integration surface alongside the fixed-step RK4 and RK8 methods.
// It returns the final time reached and the number of accepted steps.
func RKF45(rt *legion.Runtime, f RHS, t0, t1 float64, y []*cunumeric.Array, rtol float64, h0 float64) (float64, int) {
	n := y[0].Len()
	nc := len(y)
	// Fehlberg tableau.
	a := [][]float64{
		{},
		{1.0 / 4},
		{3.0 / 32, 9.0 / 32},
		{1932.0 / 2197, -7200.0 / 2197, 7296.0 / 2197},
		{439.0 / 216, -8, 3680.0 / 513, -845.0 / 4104},
		{-8.0 / 27, 2, -3544.0 / 2565, 1859.0 / 4104, -11.0 / 40},
	}
	c := []float64{0, 1.0 / 4, 3.0 / 8, 12.0 / 13, 1, 1.0 / 2}
	b5 := []float64{16.0 / 135, 0, 6656.0 / 12825, 28561.0 / 56430, -9.0 / 50, 2.0 / 55}
	b4 := []float64{25.0 / 216, 0, 1408.0 / 2565, 2197.0 / 4104, -1.0 / 5, 0}

	k := make([][]*cunumeric.Array, 6)
	for i := range k {
		k[i] = make([]*cunumeric.Array, nc)
		for q := range k[i] {
			k[i][q] = cunumeric.Zeros(rt, n)
		}
	}
	tmp := make([]*cunumeric.Array, nc)
	cand := make([]*cunumeric.Array, nc)
	for q := 0; q < nc; q++ {
		tmp[q] = cunumeric.Zeros(rt, n)
		cand[q] = cunumeric.Zeros(rt, n)
	}
	defer func() {
		for i := range k {
			for _, arr := range k[i] {
				arr.Destroy()
			}
		}
		for q := 0; q < nc; q++ {
			tmp[q].Destroy()
			cand[q].Destroy()
		}
	}()

	t := t0
	h := h0
	steps := 0
	for t < t1 && steps < 100000 {
		if t+h > t1 {
			h = t1 - t
		}
		for i := 0; i < 6; i++ {
			for q := 0; q < nc; q++ {
				cunumeric.Copy(tmp[q], y[q])
				for j, aij := range a[i] {
					if aij != 0 {
						cunumeric.AXPY(h*aij, k[j][q], tmp[q])
					}
				}
			}
			f(t+c[i]*h, tmp, k[i])
		}
		// 5th-order candidate and 4th/5th error estimate.
		var errNorm, solNorm float64
		for q := 0; q < nc; q++ {
			cunumeric.Copy(cand[q], y[q])
			cunumeric.Copy(tmp[q], y[q])
			for i := 0; i < 6; i++ {
				if b5[i] != 0 {
					cunumeric.AXPY(h*b5[i], k[i][q], cand[q])
				}
				if b4[i] != 0 {
					cunumeric.AXPY(h*b4[i], k[i][q], tmp[q])
				}
			}
			diff := cunumeric.Sub(cand[q], tmp[q])
			errNorm += cunumeric.Dot(diff, diff).Get()
			solNorm += cunumeric.Dot(cand[q], cand[q]).Get()
			diff.Destroy()
		}
		errNorm = math.Sqrt(errNorm)
		scale := rtol * (1 + math.Sqrt(solNorm))
		if errNorm <= scale || h <= 1e-12 {
			// Accept.
			for q := 0; q < nc; q++ {
				cunumeric.Copy(y[q], cand[q])
			}
			t += h
			steps++
		}
		// Standard step-size controller.
		if errNorm > 0 {
			factor := 0.9 * math.Pow(scale/errNorm, 0.2)
			if factor < 0.2 {
				factor = 0.2
			}
			if factor > 5 {
				factor = 5
			}
			h *= factor
		} else {
			h *= 2
		}
	}
	return t, steps
}
