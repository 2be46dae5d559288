package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"ribbon/internal/stats"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At/Set roundtrip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("fresh matrix must be zeroed")
	}
}

func TestMatrixBoundsPanic(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(0, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected bounds panic")
				}
			}()
			f()
		}()
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6] * [1 1 1]^T = [6 15]^T
	vals := []float64{1, 2, 3, 4, 5, 6}
	copy(m.Data, vals)
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulAndTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := a.Transpose()
	if b.Rows != 3 || b.Cols != 2 || b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %+v", b)
	}
	p := a.Mul(b) // 2x2: [[14,32],[32,77]]
	want := [][]float64{{14, 32}, {32, 77}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d) = %g, want %g", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatalf("Dot failed")
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// randomSPD builds A = B B^T + eps*I, which is symmetric positive definite.
func randomSPD(r *stats.RNG, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	a := b.Mul(b.Transpose())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+0.5)
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	r := stats.Derive(11, "chol")
	for _, n := range []int{1, 2, 3, 5, 10, 30} {
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.L()
		rec := l.Mul(l.Transpose())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(rec.At(i, j), a.At(i, j), 1e-8*(1+math.Abs(a.At(i, j)))) {
					t.Fatalf("n=%d: LL^T(%d,%d)=%g, want %g", n, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	r := stats.Derive(12, "solve")
	for _, n := range []int{1, 3, 8, 25} {
		a := randomSPD(r, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.NormFloat64()
		}
		b := a.MulVec(xTrue)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		x := ch.SolveVec(b)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-6*(1+math.Abs(xTrue[i]))) {
				t.Fatalf("n=%d: x[%d]=%g, want %g", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// Diagonal matrix: log det = sum of logs.
	n := 4
	a := NewMatrix(n, n)
	diag := []float64{2, 3, 4, 5}
	for i := 0; i < n; i++ {
		a.Set(i, i, diag[i])
	}
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(2 * 3 * 4 * 5)
	if !almostEq(ch.LogDet(), want, 1e-12) {
		t.Fatalf("LogDet = %g, want %g", ch.LogDet(), want)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

// Property: for random SPD systems, the Cholesky solution satisfies A x = b.
func TestCholeskySolveProperty(t *testing.T) {
	r := stats.Derive(14, "prop")
	f := func(seed uint64) bool {
		rr := stats.NewRNG(seed, seed^0xabcdef)
		n := 1 + rr.IntN(12)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rr.NormFloat64()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.SolveVec(b)
		ax := a.MulVec(x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-6*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardBackSolveComposition(t *testing.T) {
	r := stats.Derive(15, "fb")
	n := 7
	a := randomSPD(r, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x1 := ch.SolveVec(b)
	x2 := ch.BackSolveInto(make([]float64, n), ch.ForwardSolveInto(make([]float64, n), b))
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("SolveVec != BackSolveInto(ForwardSolveInto)")
		}
	}
}

// Property: growing a factorization row by row with Extend is bit-identical to
// factoring the full matrix at once — Extend appends exactly the row the
// from-scratch algorithm computes.
func TestCholeskyExtendBitIdentical(t *testing.T) {
	r := stats.Derive(16, "extend")
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := randomSPD(r, n)
		full, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		inc := &Cholesky{}
		for i := 0; i < n; i++ {
			col := make([]float64, i)
			for j := 0; j < i; j++ {
				col[j] = a.At(i, j)
			}
			if err := inc.Extend(col, a.At(i, i)); err != nil {
				t.Fatalf("n=%d row %d: %v", n, i, err)
			}
		}
		if inc.Size() != full.Size() {
			t.Fatalf("n=%d: size %d vs %d", n, inc.Size(), full.Size())
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if inc.At(i, j) != full.At(i, j) {
					t.Fatalf("n=%d: L(%d,%d) differs: %g vs %g", n, i, j, inc.At(i, j), full.At(i, j))
				}
			}
		}
	}
}

// A failed Extend must leave the factorization untouched and usable.
func TestCholeskyExtendFailureLeavesFactorIntact(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	before := ch.L()
	// Bordering with an overwhelming off-diagonal column makes the matrix
	// indefinite: the Schur complement 1 - w.w goes negative.
	if err := ch.Extend([]float64{10, 10}, 1); err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
	if ch.Size() != 2 {
		t.Fatalf("failed Extend changed size to %d", ch.Size())
	}
	after := ch.L()
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("failed Extend mutated the factor")
		}
	}
	// The factor must still solve correctly.
	x := ch.SolveVec([]float64{5, 4})
	ax := a.MulVec(x)
	if !almostEq(ax[0], 5, 1e-10) || !almostEq(ax[1], 4, 1e-10) {
		t.Fatalf("factor unusable after failed Extend: A x = %v", ax)
	}
}

// Clone must be fully independent: extending the clone leaves the original
// unchanged even when the clone's append would otherwise share the array.
func TestCholeskyCloneIndependence(t *testing.T) {
	r := stats.Derive(17, "clone")
	a := randomSPD(r, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	orig := ch.L()
	cl := ch.Clone()
	if err := cl.Extend([]float64{0.1, 0.2, 0.1, 0, 0.3, 0.2}, 5); err != nil {
		t.Fatal(err)
	}
	if ch.Size() != 6 || cl.Size() != 7 {
		t.Fatalf("sizes: orig %d clone %d", ch.Size(), cl.Size())
	}
	now := ch.L()
	for i := range orig.Data {
		if orig.Data[i] != now.Data[i] {
			t.Fatalf("extending clone mutated original")
		}
	}
}
