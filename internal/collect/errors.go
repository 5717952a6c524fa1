package collect

import (
	"context"
	"errors"
	"fmt"
	"net"
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
