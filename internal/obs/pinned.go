// pinned by bench/seam.go; ROADMAP item 1 deletes

package obs

import "context"

// Nothing that serves calls this: both transports open their traces
// with Open. The benchmark module still compiles against it.

// Start is Open for a caller that passes a context along; the context
// comes back unchanged.
func (t *Tracer) Start(ctx context.Context, endpoint string) (context.Context, *Trace) {
	return ctx, t.Open(endpoint)
}
