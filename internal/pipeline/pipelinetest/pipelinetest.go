// Package pipelinetest holds the context the cancellation tests of the
// training stack (scaler, iforest, pca, kmeans, core) share.
package pipelinetest

import "context"

// CountingCtx is a context whose Err answers nil a fixed number of times
// and context.Canceled from then on. The training stages look at their
// context at points fixed by the input alone (per stage, per tree, per
// Lloyd iteration), never by time, so a CountingCtx cancels a run at the
// same point on every machine. It is for single-goroutine code that
// polls Err; Done never fires.
type CountingCtx struct {
	context.Context
	budget, calls int
}

// NewCountingCtx returns a context over parent whose first budget Err
// calls answer nil; a budget of math.MaxInt only counts.
func NewCountingCtx(parent context.Context, budget int) *CountingCtx {
	return &CountingCtx{Context: parent, budget: budget}
}

func (c *CountingCtx) Err() error {
	c.calls++
	if c.calls > c.budget {
		return context.Canceled
	}
	return nil
}

// Calls returns how many times Err has been called.
func (c *CountingCtx) Calls() int { return c.calls }
