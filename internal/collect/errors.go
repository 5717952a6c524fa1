package collect

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"polygraph/internal/rng"
)

// Typed client-side failure taxonomy. A fleet balancer routing around a
// bad replica needs to know *why* a request failed: a transport-level
// failure (dial refused, read timeout, connection reset) means the
// replica is down and should be ejected from rotation, while a protocol
// failure (undecodable frame, malformed response body) means the replica
// answered but the bytes were wrong — ejecting on those would let one
// corrupted payload take a healthy replica out of service.

// FailKind classifies a client-side failure.
type FailKind int

const (
	// FailDown marks transport-level failures: dial errors, timeouts,
	// resets — the replica is unreachable and a balancer should eject it.
	FailDown FailKind = iota + 1
	// FailBadFrame marks protocol-level failures: the replica answered
	// but the frame or response body did not decode. The replica is
	// alive; ejecting it would be wrong.
	FailBadFrame
	// FailStatus marks an HTTP response with a non-2xx status: the
	// replica is healthy enough to answer and took a position on the
	// request.
	FailStatus
)

func (k FailKind) String() string {
	switch k {
	case FailDown:
		return "down"
	case FailBadFrame:
		return "bad_frame"
	case FailStatus:
		return "status"
	default:
		return fmt.Sprintf("FailKind(%d)", int(k))
	}
}

// ClientError is a classified client-side failure.
type ClientError struct {
	// Kind is the taxonomy bucket a balancer should act on.
	Kind FailKind
	// Op names the operation that failed ("submit", "dial", "stats").
	Op string
	// Status is the HTTP status code for FailStatus errors (0 otherwise).
	Status int
	// Err is the underlying error.
	Err error
}

func (e *ClientError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("collect: %s: %s (status %d): %v", e.Op, e.Kind, e.Status, e.Err)
	}
	return fmt.Sprintf("collect: %s: %s: %v", e.Op, e.Kind, e.Err)
}

func (e *ClientError) Unwrap() error { return e.Err }

// classify buckets a transport error from net/http or net: timeouts and
// connection-level failures are FailDown; context cancellation is passed
// through as FailDown too (the replica did not answer).
func classify(op string, err error) *ClientError {
	kind := FailDown
	var ne net.Error
	switch {
	case errors.As(err, &ne), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		kind = FailDown
	}
	return &ClientError{Kind: kind, Op: op, Err: err}
}

// IsDown reports whether err represents an unreachable replica — the
// ejection signal for a fleet balancer.
func IsDown(err error) bool {
	var ce *ClientError
	return errors.As(err, &ce) && ce.Kind == FailDown
}

// Backoff computes bounded, jittered reconnect delays. The jitter stream
// is PCG-seeded so a fixed-seed harness run schedules reconnects
// identically run to run — the same determinism contract as the rest of
// the harness. The zero value is unusable; build with NewBackoff.
type Backoff struct {
	base time.Duration
	max  time.Duration
	rng  *rng.PCG
}

// NewBackoff builds a backoff schedule: attempt n (0-based) waits
// base·2ⁿ capped at max, with ±25% deterministic jitter. base <= 0
// defaults to 50ms, max <= 0 to 2s.
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	return &Backoff{base: base, max: max, rng: rng.New(seed)}
}

// Delay returns the wait before retry attempt (0-based).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base << uint(attempt)
	if d <= 0 || d > b.max { // <<: overflow guard
		d = b.max
	}
	// ±25% jitter keeps a fleet of reconnecting clients from stampeding
	// the replica that just came back.
	jitter := 0.75 + 0.5*b.rng.Float64()
	return time.Duration(float64(d) * jitter)
}
