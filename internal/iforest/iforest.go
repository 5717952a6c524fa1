// Package iforest implements Isolation Forest outlier detection (Liu,
// Ting & Zhou 2008), used in the Browser Polygraph pre-processing stage
// (paper §6.4.1) to drop anomalous fingerprints before clustering. The
// paper filters with a contamination threshold of 0.002%, eliminating 172
// of 205k rows. The forest is a training-time filter only: no model file
// carries it, so it has one form, the node array it is grown into.
package iforest

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"polygraph/internal/matrix"
	"polygraph/internal/rng"
)

// errNegativeSize is a fit asked for a negative forest or sample size.
var errNegativeSize = errors.New("iforest: negative forest or sample size")

// Config controls forest construction.
type Config struct {
	// Trees is the ensemble size; 0 means the default of 100.
	Trees int
	// SampleSize is the sub-sample ψ per tree; 0 means min(256, n).
	SampleSize int
	// Seed drives deterministic construction.
	Seed uint64
}

// Forest is a fitted isolation forest. Its trees are laid out preorder,
// back to back, in one node array: tree t starts at roots[t], and an
// internal node's left child is the node after it.
type Forest struct {
	nodes []node
	roots []int32
	dim   int
	// norm is c(ψ), the path length that scores 0.5.
	norm float64
}

// node is an internal node when feature ≥ 0: x[feature] < value goes to
// the next node, anything else to right. At a leaf (feature −1), value is
// c(size), the expected further depth among the size training rows that
// reached it.
type node struct {
	value   float64
	feature int32
	right   int32
}

// FitGroups builds a forest over the grouped rows. The ψ-sample of each
// tree is drawn over all the row indices, so a row repeated a thousand
// times is a thousand candidates, and the trees read the sampled rows'
// vectors through the distinct-row table. A negative Trees or SampleSize
// is an error, not a makeslice panic.
func FitGroups(rows matrix.RowGroups, cfg Config) (*Forest, error) {
	if cfg.Trees < 0 || cfg.SampleSize < 0 {
		return nil, fmt.Errorf("%w: %d trees of sample size %d", errNegativeSize, cfg.Trees, cfg.SampleSize)
	}
	n, d := rows.Dims()
	if n == 0 || d == 0 {
		return nil, fmt.Errorf("iforest: empty input %dx%d", n, d)
	}
	trees := cfg.Trees
	if trees == 0 {
		trees = 100
	}
	psi := cfg.SampleSize
	if psi == 0 {
		psi = 256
	}
	if psi > n {
		psi = n
	}
	maxDepth := int(math.Ceil(math.Log2(float64(psi)))) + 1

	f := &Forest{roots: make([]int32, trees), dim: d, norm: avgPathLength(psi)}
	// Sampling walks one shuffle state across trees: tree t's ψ rows
	// depend on every earlier shuffle. Each tree draws its sample and
	// then its splits from its own PCG stream split from Seed.
	base := rng.New(cfg.Seed)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	// The trees read one feature of many rows at a time, so they read a
	// column-major copy of the table.
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = rows.Rows.Col(j)
	}
	sample := make([]int32, psi)
	for t := range f.roots {
		gen := base.Split(fmt.Sprintf("tree-%d", t))
		// Sample ψ rows without replacement: the prefix of a Fisher–Yates
		// shuffle (gen.Shuffle's draws, without a call per swap), as the
		// classes of those rows.
		for i := n - 1; i > 0; i-- {
			j := gen.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		for k, i := range idx[:psi] {
			sample[k] = rows.Group[i]
		}
		f.roots[t] = int32(len(f.nodes))
		f.grow(cols, sample, 0, maxDepth, gen)
	}
	return f, nil
}

// grow appends the tree over sample, the classes of the sampled rows (one
// entry per row), to f.nodes in preorder, reading feature j of class g as
// cols[j][g]. It partitions sample in place: a node's split and its
// subtrees depend on which rows fall on each side, never on their order.
func (f *Forest) grow(cols [][]float64, sample []int32, depth, maxDepth int, gen *rng.PCG) {
	at := len(f.nodes)
	f.nodes = append(f.nodes, node{value: avgPathLength(len(sample)), feature: -1})
	if depth >= maxDepth || len(sample) <= 1 {
		return
	}
	d := len(cols)
	// Pick a feature with spread; give up after a bounded number of
	// tries (all-constant subsample) and stay a leaf.
	for try := 0; try < d; try++ {
		feat := gen.Intn(d)
		col := cols[feat]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, g := range sample {
			v := col[g]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		thr := lo + gen.Float64()*(hi-lo)
		left := 0
		for k, g := range sample {
			if col[g] < thr {
				sample[k], sample[left] = sample[left], g
				left++
			}
		}
		if left == 0 || left == len(sample) {
			continue
		}
		f.nodes[at] = node{value: thr, feature: int32(feat)}
		f.grow(cols, sample[:left], depth+1, maxDepth, gen)
		f.nodes[at].right = int32(len(f.nodes))
		f.grow(cols, sample[left:], depth+1, maxDepth, gen)
		return
	}
}

// avgPathLength is c(n), the average path length of an unsuccessful BST
// search among n points: 2·H(n−1) − 2(n−1)/n.
func avgPathLength(n int) float64 {
	if n <= 1 {
		return 0
	}
	h := math.Log(float64(n-1)) + 0.5772156649015329
	return 2*h - 2*float64(n-1)/float64(n)
}

// pathLength walks x down tree t, counting edges, and adds the leaf's
// c(size) adjustment.
func (f *Forest) pathLength(t int, x []float64) float64 {
	i := f.roots[t]
	depth := 0.0
	for n := f.nodes[i]; n.feature >= 0; n = f.nodes[i] {
		if x[n.feature] < n.value {
			i++
		} else {
			i = n.right
		}
		depth++
	}
	return depth + f.nodes[i].value
}

// scoreBlock is how many rows scoreRows takes at a time: a block's rows
// stay in cache while each tree in turn is walked over them.
const scoreBlock = 1024

// ScoreAll scores every row of data. Training scores its distinct-row
// table, so every row here is scored on its own.
func (f *Forest) ScoreAll(data *matrix.Dense) ([]float64, error) {
	r, d := data.Dims()
	if d != f.dim {
		return nil, fmt.Errorf("iforest: score on %d-dim rows, fitted on %d", d, f.dim)
	}
	out := make([]float64, r)
	for start := 0; start < r; start += scoreBlock {
		f.scoreRows(data, out, start, min(start+scoreBlock, r))
	}
	return out, nil
}

// scoreRows scores rows [lo, hi) of data, each into its own slot of out.
// It walks one tree at a time across the whole block, so the tree stays
// hot in cache while every row walks it, and adds each row's path lengths
// in tree order.
func (f *Forest) scoreRows(data *matrix.Dense, out []float64, lo, hi int) {
	block := out[lo:hi]
	clear(block)
	for t := range f.roots {
		for i := range block {
			block[i] += f.pathLength(t, data.RawRow(lo+i))
		}
	}
	nTrees := float64(len(f.roots))
	for i, total := range block {
		block[i] = math.Pow(2, -(total/nTrees)/f.norm)
	}
}

// Outliers returns, ascending, the rows that removing the
// `contamination` fraction (0 ≤ c < 1) with the highest anomaly scores
// drops. Each class is scored once, on its table row. At least one row
// is removed when contamination > 0 and there are rows, matching the
// intent of a strictly positive threshold like the paper's 0.002%.
func (f *Forest) Outliers(rows matrix.RowGroups, contamination float64) ([]int, error) {
	if contamination < 0 || contamination >= 1 {
		return nil, fmt.Errorf("iforest: contamination %v out of [0,1)", contamination)
	}
	scores, err := f.ScoreAll(rows.Rows)
	if err != nil {
		return nil, err
	}
	n := len(rows.Group)
	nDrop := 0
	if n > 0 && contamination > 0 {
		nDrop = int(math.Round(contamination * float64(n)))
		if nDrop == 0 {
			nDrop = 1
		}
	}
	return topScores(rows.Group, scores, nDrop), nil
}

// topScores returns, in ascending index order, the k rows a full sort by
// (score descending, index ascending) would put first, row i scoring
// scores[group[i]]; ties therefore go to the earlier row, which keeps the
// cut deterministic. It holds the k best rows seen so far in a heap with
// the weakest at the root: rows arrive in index order, so a newcomer
// displaces the root only with a strictly higher score, and on the few
// hundred distinct scores of a fingerprint population almost every row is
// settled by that one comparison. k must not exceed len(group).
func topScores(group []int32, scores []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	score := func(i int) float64 { return scores[group[i]] }
	weaker := func(a, b int) bool {
		if sa, sb := score(a), score(b); sa != sb {
			return sa < sb
		}
		return a > b
	}
	top := make([]int, k)
	for i := range top {
		top[i] = i
	}
	siftDown := func(p int) {
		for {
			c := 2*p + 1
			if c >= k {
				return
			}
			if c+1 < k && weaker(top[c+1], top[c]) {
				c++
			}
			if !weaker(top[c], top[p]) {
				return
			}
			top[p], top[c] = top[c], top[p]
			p = c
		}
	}
	for p := k/2 - 1; p >= 0; p-- {
		siftDown(p)
	}
	for i := k; i < len(group); i++ {
		if score(i) > score(top[0]) {
			top[0] = i
			siftDown(0)
		}
	}
	sort.Ints(top)
	return top
}
