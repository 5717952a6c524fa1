// Package pipeline is the stage-execution layer under the §6.4 training
// pipeline: every stage (scale → iforest filter → PCA → k-means →
// cluster-table) runs under a context.Context through a Runner that
// records wall time and rows in/out, and failures surface through a
// small typed error taxonomy instead of stringly-typed fmt.Errorf
// values. The daemon's hot-reload retrain loop depends on this layer to
// cancel a training run mid-flight, bound a slow stage with a deadline,
// and distinguish bad input from internal failure.
//
// Cancellation semantics. Stages observe the context cooperatively:
// each checks ctx between its passes over the rows (per isolation tree,
// per Lloyd iteration), so a cancelled context aborts within one such
// pass. Cancellation can only skip work, never reorder it, which is why
// instrumented, cancellable runs remain bit-identical to the
// uninstrumented pipeline whenever they run to completion.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// The error taxonomy. Callers classify failures with errors.Is; stage
// attribution travels alongside via StageError (errors.As).
var (
	// ErrCanceled reports that the context was cancelled or its deadline
	// expired before the pipeline finished.
	ErrCanceled = errors.New("pipeline: canceled")
	// ErrBadInput reports invalid caller-supplied data or configuration —
	// the failure is the request's fault, not the system's.
	ErrBadInput = errors.New("pipeline: bad input")
	// ErrNotTrained reports use of a model that has not been trained (or
	// was loaded incompletely).
	ErrNotTrained = errors.New("pipeline: model not trained")
)

// BadInput wraps ErrBadInput with a formatted description.
func BadInput(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadInput, fmt.Sprintf(format, args...))
}

// Canceled wraps a cause (typically context.Canceled or
// context.DeadlineExceeded) so errors.Is(err, ErrCanceled) holds. A cause
// already carrying ErrCanceled passes through unchanged.
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	if errors.Is(cause, ErrCanceled) {
		return cause
	}
	return fmt.Errorf("%w: %v", ErrCanceled, cause)
}

// IsContextErr reports whether err stems from context cancellation or
// deadline expiry.
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// StageError attributes a pipeline failure to the stage that produced it.
type StageError struct {
	// Stage is the stage name ("kmeans", "iforest-filter", ...).
	Stage string
	// Err is the underlying failure.
	Err error
}

func (e *StageError) Error() string { return fmt.Sprintf("stage %s: %v", e.Stage, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// Timing records one executed stage: what ran, how long it took, and how
// many rows flowed in and out.
type Timing struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	RowsIn   int           `json:"rows_in"`
	RowsOut  int           `json:"rows_out"`
}

// Runner executes named stages under one shared context, accumulating a
// Timing per completed stage. The zero value is not usable; construct
// with New. Runners are single-goroutine objects, like the training
// pipeline they run.
type Runner struct {
	ctx     context.Context
	timings []Timing
}

// New builds a Runner over ctx; a nil ctx means context.Background().
func New(ctx context.Context) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Runner{ctx: ctx}
}

// Context returns the context stages run under.
func (r *Runner) Context() context.Context { return r.ctx }

// Run executes one stage: it refuses to start once the context is done,
// times fn, and records a Timing on success. rowsIn is the stage's input
// row count; fn reports its output row count. Errors come back wrapped
// in a StageError carrying the stage name, with context-driven failures
// additionally mapped onto ErrCanceled.
func (r *Runner) Run(name string, rowsIn int, fn func(ctx context.Context) (rowsOut int, err error)) error {
	if err := r.ctx.Err(); err != nil {
		return &StageError{Stage: name, Err: Canceled(err)}
	}
	start := time.Now()
	rowsOut, err := fn(r.ctx)
	if err != nil {
		if IsContextErr(err) || r.ctx.Err() != nil {
			err = Canceled(err)
		}
		return &StageError{Stage: name, Err: err}
	}
	r.timings = append(r.timings, Timing{
		Name:     name,
		Duration: time.Since(start),
		RowsIn:   rowsIn,
		RowsOut:  rowsOut,
	})
	return nil
}

// Timings returns a copy of the completed-stage record, in execution
// order.
func (r *Runner) Timings() []Timing {
	return append([]Timing(nil), r.timings...)
}
