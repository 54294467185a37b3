package pure

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/icl"
)

// countdownCtx is a context whose Err turns to Canceled on its
// cancelAt-th call, counting the calls.
type countdownCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestResolveOptsCancellation checks on a 16,384-FF SIB network that
// ResolveOpts looks at its context once per round and returns the
// context error within one round of cancellation, with the changes of
// the completed rounds — a prefix of the uncancelled resolution.
func TestResolveOptsCancellation(t *testing.T) {
	var sb strings.Builder
	if _, err := bench.StreamScaleICL(&sb, nil, bench.ScaleGenConfig{TargetScanFFs: 16384, WithSpec: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	nw, spec, err := icl.ParseNetworkAndSpec(sb.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Resolve(nw.Clone(), spec)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	if len(full.Changes) <= rounds {
		t.Fatalf("only %d changes, want more than %d", len(full.Changes), rounds)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ResolveOpts(nw.Clone(), spec, engine.Options{Context: ctx})
	if err != context.Canceled || len(res.Changes) != 0 {
		t.Fatalf("cancelled before the first round: err %v, %d changes", err, len(res.Changes))
	}

	cd := &countdownCtx{Context: context.Background(), cancelAt: rounds + 1}
	res, err = ResolveOpts(nw.Clone(), spec, engine.Options{Context: cd})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cd.calls != rounds+1 || !slices.Equal(res.Changes, full.Changes[:rounds]) {
		t.Fatalf("after %d context checks: %d changes, want the first %d of the full run",
			cd.calls, len(res.Changes), rounds)
	}
}
