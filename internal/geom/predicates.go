package geom

import "math"

// The predicates below follow the standard computational-geometry sign
// conventions (de Berg et al.). They are evaluated in double precision with
// a relative-error filter: when the computed determinant is smaller than an
// error bound proportional to the magnitude of its terms, the sign is
// reported as 0 (degenerate) rather than trusted. This "filtered float"
// approach matches what ParGeo does in practice (it also uses double
// arithmetic) and is sufficient for the randomized inputs used in the
// paper's evaluation; it avoids the enormous constant factors of exact
// arithmetic while never inventing a confident wrong sign on nearly
// degenerate inputs.

const orient2DErrBound = 3.3306690738754716e-16 * 4 // ~(3+16eps)eps

// Orient2D returns +1 if c lies to the left of directed line a->b, -1 if to
// the right, and 0 if the three points are exactly collinear. The float
// filter decides all but near-degenerate cases; those fall back to exact
// rational arithmetic (exact.go).
func Orient2D(a, b, c []float64) int {
	acx, acy := a[0]-c[0], a[1]-c[1]
	bcx, bcy := b[0]-c[0], b[1]-c[1]
	det := acx*bcy - acy*bcx
	detsum := math.Abs(acx*bcy) + math.Abs(acy*bcx)
	if det > detsum*orient2DErrBound {
		return 1
	}
	if det < -detsum*orient2DErrBound {
		return -1
	}
	return orient2DExact(a, b, c)
}

// Cross2D returns the raw signed area determinant (b-a) x (c-a).
func Cross2D(a, b, c []float64) float64 {
	return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
}

// Orient3D returns +1 if d lies below the plane through a,b,c (where
// "below" means Orient3D(a,b,c,d) sees a,b,c in counterclockwise order when
// viewed from above), -1 if above, 0 if (nearly) coplanar.
func Orient3D(a, b, c, d []float64) int {
	adx, ady, adz := a[0]-d[0], a[1]-d[1], a[2]-d[2]
	bdx, bdy, bdz := b[0]-d[0], b[1]-d[1], b[2]-d[2]
	cdx, cdy, cdz := c[0]-d[0], c[1]-d[1], c[2]-d[2]

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	cdxady := cdx * ady
	adxcdy := adx * cdy
	adxbdy := adx * bdy
	bdxady := bdx * ady

	det := adz*(bdxcdy-cdxbdy) + bdz*(cdxady-adxcdy) + cdz*(adxbdy-bdxady)
	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*math.Abs(adz) +
		(math.Abs(cdxady)+math.Abs(adxcdy))*math.Abs(bdz) +
		(math.Abs(adxbdy)+math.Abs(bdxady))*math.Abs(cdz)
	errBound := 7.771561172376103e-16 * permanent // ~(7+56eps)eps
	if det > errBound {
		return 1
	}
	if det < -errBound {
		return -1
	}
	return orient3DExact(a, b, c, d)
}

// InCircle returns +1 if d lies strictly inside the circle through a, b, c
// (which must be in counterclockwise order), -1 if strictly outside, and 0
// if (nearly) on the circle.
func InCircle(a, b, c, d []float64) int {
	adx, ady := a[0]-d[0], a[1]-d[1]
	bdx, bdy := b[0]-d[0], b[1]-d[1]
	cdx, cdy := c[0]-d[0], c[1]-d[1]

	alift := adx*adx + ady*ady
	blift := bdx*bdx + bdy*bdy
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdx*cdy-cdx*bdy) + blift*(cdx*ady-adx*cdy) + clift*(adx*bdy-bdx*ady)
	permanent := alift*(math.Abs(bdx*cdy)+math.Abs(cdx*bdy)) +
		blift*(math.Abs(cdx*ady)+math.Abs(adx*cdy)) +
		clift*(math.Abs(adx*bdy)+math.Abs(bdx*ady))
	errBound := 1.1102230246251565e-15 * permanent
	if det > errBound {
		return 1
	}
	if det < -errBound {
		return -1
	}
	return inCircleExact(a, b, c, d)
}

// PlaneSide3 evaluates the signed volume of the tetrahedron (a, b, c, p):
// positive when p is on the positive side of the oriented plane (a,b,c).
// This is the raw determinant used for hull visibility tests, where the
// magnitude (distance proxy) matters, not only the sign.
func PlaneSide3(a, b, c, p []float64) float64 {
	pl := NewPlane3(a, b, c)
	return pl.Side(p)
}

// Plane3 is the oriented plane (a, b, c) with its normal ab × ac computed
// once, for testing many points against one plane: Side(p) is
// PlaneSide3(a, b, c, p).
type Plane3 struct {
	a, n [3]float64
}

// NewPlane3 returns the oriented plane through a, b and c.
func NewPlane3(a, b, c []float64) Plane3 {
	abx, aby, abz := b[0]-a[0], b[1]-a[1], b[2]-a[2]
	acx, acy, acz := c[0]-a[0], c[1]-a[1], c[2]-a[2]
	return Plane3{
		a: [3]float64{a[0], a[1], a[2]},
		n: [3]float64{aby*acz - abz*acy, abz*acx - abx*acz, abx*acy - aby*acx},
	}
}

// Side is the signed volume of the tetrahedron (a, b, c, p): (ab × ac) · ap.
func (pl *Plane3) Side(p []float64) float64 {
	return pl.n[0]*(p[0]-pl.a[0]) + pl.n[1]*(p[1]-pl.a[1]) + pl.n[2]*(p[2]-pl.a[2])
}

// Circumball computes the center and squared radius of the smallest ball
// whose boundary passes through all the given support points (1 to d+1
// points in R^d). For k support points it finds the circumcenter within
// their affine hull by solving the k-1 linear equations
//
//	2 (p_i - p_0) . x = |p_i|^2 - |p_0|^2
//
// restricted to x = p_0 + sum_j t_j (p_j - p_0), via Gaussian elimination
// with partial pivoting. Returns ok=false for (nearly) degenerate support
// sets. This is the algebra underlying every smallest-enclosing-ball
// variant in the seb package.
func Circumball(pts [][]float64, center []float64) (sqRadius float64, ok bool) {
	k := len(pts)
	d := len(center)
	if k == 0 {
		for i := range center {
			center[i] = 0
		}
		return 0, true
	}
	if k == 1 {
		copy(center, pts[0])
		return 0, true
	}
	if k > d+1 {
		return 0, false
	}
	m := k - 1
	// Build the m x m system A t = b where A[i][j] = v_i . v_j * 2,
	// b[i] = v_i . v_i, with v_i = p_{i+1} - p_0.
	v := make([][]float64, m)
	for i := 0; i < m; i++ {
		v[i] = make([]float64, d)
		for c := 0; c < d; c++ {
			v[i][c] = pts[i+1][c] - pts[0][c]
		}
	}
	a := make([][]float64, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		a[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			dot := 0.0
			for c := 0; c < d; c++ {
				dot += v[i][c] * v[j][c]
			}
			a[i][j] = 2 * dot
		}
		selfDot := 0.0
		for c := 0; c < d; c++ {
			selfDot += v[i][c] * v[i][c]
		}
		b[i] = selfDot
	}
	// Gaussian elimination with partial pivoting. The singularity
	// threshold must be RELATIVE to the matrix scale: an exactly
	// collinear support set leaves a cancellation residual of order
	// scale*1e-16 in the eliminated column — far above any absolute
	// epsilon, which would accept the system and solve it into a garbage
	// center. Condition numbers past 1e12 mean the circumcenter has no
	// meaningful digits left anyway, so such supports are reported
	// degenerate.
	scale := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if ab := math.Abs(a[i][j]); ab > scale {
				scale = ab
			}
		}
	}
	tol := scale * 1e-12
	if tol < 1e-300 {
		tol = 1e-300
	}
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < tol {
			return 0, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < m; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	t := make([]float64, m)
	for r := m - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < m; c++ {
			s -= a[r][c] * t[c]
		}
		t[r] = s / a[r][r]
	}
	copy(center, pts[0])
	for i := 0; i < m; i++ {
		for c := 0; c < d; c++ {
			center[c] += t[i] * v[i][c]
		}
	}
	sq := SqDist(center, pts[0])
	if math.IsNaN(sq) || math.IsInf(sq, 0) {
		return 0, false
	}
	return sq, true
}
