// Package iforest implements Isolation Forest outlier detection (Liu,
// Ting & Zhou 2008), used in the Browser Polygraph pre-processing stage
// (paper §6.4.1) to drop anomalous fingerprints before clustering. The
// paper filters with a contamination threshold of 0.002%, eliminating 172
// of 205k rows.
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

// Forest is a fitted isolation forest.
type Forest struct {
	trees      []*node
	sampleSize int
	dim        int

	// Flat structure-of-arrays mirror of trees, built once by finalize()
	// after Fit/Import so scoring walks contiguous slices instead of
	// chasing *node pointers. Node i is a leaf iff flatLeft[i] < 0;
	// internal nodes route x[flatFeature[i]] < flatThr[i] to
	// flatLeft/flatRight (absolute indices into the same arrays), and
	// leaves carry their c(size) path adjustment in flatAdj. flatRoots[t]
	// is tree t's root (trees are laid out preorder, back to back). norm
	// caches avgPathLength(sampleSize), hoisted out of the per-vector
	// Score formula. A hand-built Forest without these arrays still scores
	// through the pointer walk, bit-identically.
	flatFeature []int32
	flatThr     []float64
	flatLeft    []int32
	flatRight   []int32
	flatAdj     []float64
	flatRoots   []int32
	norm        float64
}

type node struct {
	// Internal nodes: split on feature < threshold.
	feature   int
	threshold float64
	left      *node
	right     *node
	// Leaves: size is the number of training points that reached here.
	size int
	leaf bool
}

// Fit builds a forest over the rows of m, through their grouping (see
// FitGroups).
func Fit(m *matrix.Dense, cfg Config) (*Forest, error) {
	return FitGroups(m.DistinctRows(), cfg)
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

	f := &Forest{sampleSize: psi, dim: d, trees: make([]*node, trees)}
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
	for t := range f.trees {
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
		f.trees[t] = buildTree(cols, sample, 0, maxDepth, gen)
	}
	f.finalize()
	return f, nil
}

// finalize flattens the pointer trees into the structure-of-arrays
// layout and hoists the avgPathLength(sampleSize) normalization. Called
// once at the end of Fit and Import; scoring never mutates the arrays.
func (f *Forest) finalize() {
	total := 0
	for _, t := range f.trees {
		total += countNodes(t)
	}
	f.flatFeature = make([]int32, total)
	f.flatThr = make([]float64, total)
	f.flatLeft = make([]int32, total)
	f.flatRight = make([]int32, total)
	f.flatAdj = make([]float64, total)
	f.flatRoots = make([]int32, len(f.trees))
	next := 0
	for t, root := range f.trees {
		f.flatRoots[t] = int32(next)
		next = f.flatten(root, next)
	}
	f.norm = avgPathLength(f.sampleSize)
}

func countNodes(n *node) int {
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// flatten writes the subtree rooted at n starting at index at (preorder)
// and returns the next free index.
func (f *Forest) flatten(n *node, at int) int {
	idx := at
	at++
	if n.leaf {
		f.flatFeature[idx] = -1
		f.flatLeft[idx] = -1
		f.flatRight[idx] = -1
		f.flatAdj[idx] = avgPathLength(n.size)
		return at
	}
	f.flatFeature[idx] = int32(n.feature)
	f.flatThr[idx] = n.threshold
	l := at
	at = f.flatten(n.left, at)
	r := at
	at = f.flatten(n.right, at)
	f.flatLeft[idx] = int32(l)
	f.flatRight[idx] = int32(r)
	return at
}

// buildTree grows a tree over sample, the classes of the sampled rows
// (one entry per row), reading feature j of class g as cols[j][g]. It
// partitions sample in place: a node's split and its subtrees depend on
// which rows fall on each side, never on their order.
func buildTree(cols [][]float64, sample []int32, depth, maxDepth int, gen *rng.PCG) *node {
	if depth >= maxDepth || len(sample) <= 1 {
		return &node{leaf: true, size: len(sample)}
	}
	d := len(cols)
	// Pick a feature with spread; give up after a bounded number of
	// tries (all-constant subsample).
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
		return &node{
			feature:   feat,
			threshold: thr,
			left:      buildTree(cols, sample[:left], depth+1, maxDepth, gen),
			right:     buildTree(cols, sample[left:], depth+1, maxDepth, gen),
		}
	}
	return &node{leaf: true, size: len(sample)}
}

// pathLength walks x down a tree, adding the standard c(size) adjustment
// at leaves holding more than one training point.
func pathLength(n *node, x []float64, depth float64) float64 {
	if n.leaf {
		return depth + avgPathLength(n.size)
	}
	if x[n.feature] < n.threshold {
		return pathLength(n.left, x, depth+1)
	}
	return pathLength(n.right, x, depth+1)
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

// Score returns the anomaly score of x in [0, 1]; higher is more
// anomalous. Scores near 0.5 indicate unremarkable points.
func (f *Forest) Score(x []float64) float64 {
	if len(x) != f.dim {
		panic(fmt.Sprintf("iforest: score on %d-dim vector, fitted on %d", len(x), f.dim))
	}
	total := 0.0
	if f.flatRoots != nil {
		for t := range f.trees {
			total += f.pathLengthFlat(t, x)
		}
	} else {
		for _, t := range f.trees {
			total += pathLength(t, x, 0)
		}
	}
	mean := total / float64(len(f.trees))
	return math.Pow(2, -mean/f.normalization())
}

// normalization returns the hoisted avgPathLength(sampleSize), falling
// back to a live computation for hand-built forests that were never
// finalized.
func (f *Forest) normalization() float64 {
	if f.flatRoots != nil {
		return f.norm
	}
	return avgPathLength(f.sampleSize)
}

// pathLengthFlat is pathLength over the flat arrays: an iterative walk
// from tree t's root, counting edges and adding the leaf adjustment.
// Depth accrues by float64 increments of exactly 1, just like the
// recursive walk's depth+1 parameter, so the result is bit-identical.
func (f *Forest) pathLengthFlat(t int, x []float64) float64 {
	i := f.flatRoots[t]
	depth := 0.0
	for f.flatLeft[i] >= 0 {
		if x[f.flatFeature[i]] < f.flatThr[i] {
			i = f.flatLeft[i]
		} else {
			i = f.flatRight[i]
		}
		depth++
	}
	return depth + f.flatAdj[i]
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
// With the flat layout it traverses tree-by-tree across the whole block —
// the tree's arrays stay hot in cache while every row walks them —
// accumulating per-row path totals in tree order, which is exactly the
// summation order Score uses, so the batch is bit-identical to
// row-at-a-time scoring.
func (f *Forest) scoreRows(data *matrix.Dense, out []float64, lo, hi int) {
	if f.flatRoots == nil {
		for i := lo; i < hi; i++ {
			out[i] = f.Score(data.RawRow(i))
		}
		return
	}
	block := out[lo:hi]
	clear(block)
	for t := range f.trees {
		for i := range block {
			block[i] += f.pathLengthFlat(t, data.RawRow(lo+i))
		}
	}
	nTrees := float64(len(f.trees))
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
