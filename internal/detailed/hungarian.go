package detailed

import "math"

// hungarian solves square assignment problems min sum cost[i][perm[i]]
// using the O(n^3) potentials formulation of the Kuhn-Munkres algorithm.
// Its lanes are reused across calls, so a stream of batches allocates
// nothing once they have grown to the largest batch.
type hungarian struct {
	u, v, minv  []float64
	p, way, ans []int
	used        []bool
}

// solve returns the optimal column for each row. The result is a lane of h,
// valid until the next call.
func (h *hungarian) solve(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	const inf = math.MaxFloat64
	// 1-based potentials over rows (u) and columns (v).
	u := grow(&h.u, n+1)
	v := grow(&h.v, n+1)
	// p[j] = row matched to column j (0 = none); p[0] is the current row.
	p := grow(&h.p, n+1)
	way := grow(&h.way, n+1)
	minv := grow(&h.minv, n+1)
	used := grow(&h.used, n+1)
	clear(u)
	clear(v)
	clear(p)
	clear(way)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
		}
		clear(used)
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	ans := grow(&h.ans, n)
	clear(ans)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			ans[p[j]-1] = j - 1
		}
	}
	return ans
}

// grow reslices *s to n elements, reallocating it when its capacity is
// short, and returns it. The contents are left as they were; callers reset
// what they read.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}
