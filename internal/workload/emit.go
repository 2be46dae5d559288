package workload

import (
	"context"
	"fmt"
	"time"
)

// EmitScaled replays the stream into ch as a live open-loop arrival process:
// a query scheduled at t ms is sent t*scale wall milliseconds after the call,
// in stream order, regardless of how fast the consumer drains the channel
// (give ch enough capacity — a full channel blocks the sender and closes the
// loop, which is exactly the coordinated-omission failure open-loop drivers
// exist to avoid). Scale 1 is real time, 0.1 runs ten times faster, and 0
// disables pacing entirely (send as fast as the channel accepts — the
// replay-determinism mode tests use). The gateway flood driver runs scaled
// floods with the same scale the simulated backend uses, preserving the
// stream-time dynamics the controller sees. The emitted queries are
// byte-identical to the stream's, so a seeded stream emits a deterministic
// sequence. EmitScaled closes nothing; the caller owns ch. It returns the
// context's error if cancelled mid-stream, nil after the last query is sent.
func (s *Stream) EmitScaled(ctx context.Context, ch chan<- Query, scale float64) error {
	if scale < 0 {
		return fmt.Errorf("workload: negative emit scale %g", scale)
	}
	start := time.Now()
	for _, q := range s.Queries {
		if scale > 0 {
			due := start.Add(time.Duration(q.ArrivalMs * scale * float64(time.Millisecond)))
			if err := sleepUntil(ctx, due); err != nil {
				return err
			}
		} else if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case ch <- q:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// sleepUntil sleeps to the deadline with sub-millisecond precision: a coarse
// timer sleep until close to the deadline, then a short spin. The spin bound
// keeps scaled floods honest — at high compression the inter-arrival gaps
// drop below the platform timer resolution, and pure time.Sleep would
// systematically under-drive the pool.
func sleepUntil(ctx context.Context, due time.Time) error {
	const spin = 500 * time.Microsecond
	if d := time.Until(due) - spin; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for time.Now().Before(due) {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
