package controller

import (
	"context"
	"errors"
)

// RunLive drives the control loop from a live arrival feed instead of a
// replayed stream: the caller (in practice the ribbon-gateway data plane)
// sends the stream-time timestamp of every measured arrival on the channel,
// and the controller interleaves estimator updates with detector ticks
// exactly as Run does — the estimator genuinely cannot tell a live feed from
// a replay, which is what makes live decision traces byte-stable under a
// seeded flood.
//
// Every reconfiguration decision (applied or not) is passed to onDecision
// before the next arrival is consumed, so a serving data plane can apply the
// new pool synchronously with the decision history; a nil onDecision is
// allowed. onDecision runs on the RunLive goroutine — arrivals buffer in the
// channel while it (and the re-search before it) runs, which only delays
// ticks in wall time, never in stream time.
//
// Timestamps must be non-decreasing; out-of-order stragglers (an HTTP data
// plane admits requests from many connections) are clamped to the maximum
// seen rather than rejected, so a slightly racy feed degrades gracefully.
// RunLive returns when the channel closes (final status, nil error) or the
// context is cancelled (partial status, context error). Like Run, it may be
// called once per Controller, and Snapshot remains safe to call concurrently.
func (c *Controller) RunLive(ctx context.Context, arrivals <-chan float64, onDecision func(Reconfiguration)) (Status, error) {
	var feedErr error
	if arrivals == nil {
		feedErr = errors.New("controller: nil arrival feed")
	}
	next := func() (float64, bool, error) {
		select {
		case <-ctx.Done():
			return 0, false, ctx.Err()
		case t, ok := <-arrivals:
			return t, ok, nil
		}
	}
	return c.drive(ctx, feedErr, next, onDecision)
}
