package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/expr"
)

// sweepOne runs the sweep on one driver variant with the given expected
// bug classes and returns the tally.
func sweepOne(t *testing.T, name string, v corpus.Variant, expected func([]string) []string) (*tally, sweepStats) {
	t.Helper()
	tg, err := assemble(name, v)
	if err != nil {
		t.Fatal(err)
	}
	tg.expected = expected(tg.expected)
	tl := &tally{}
	st, err := sweep(context.Background(), []target{tg}, nil, 0, tl)
	if err != nil {
		t.Fatal(err)
	}
	return tl, st
}

func TestSweepChecksPass(t *testing.T) {
	tl, st := sweepOne(t, "ddk-sample-synthetic", corpus.Buggy, func(e []string) []string { return e })
	if tl.failed != 0 || tl.attempted != st.items {
		t.Fatalf("clean sweep: %d/%d failed (%q), %d items", tl.failed, tl.attempted, tl.notes, st.items)
	}
	if st.blocks == 0 || len(st.bugs) == 0 {
		t.Fatalf("sweep covered %d blocks and kept %d bugs", st.blocks, len(st.bugs))
	}
	qs := replaySet(st.bugs)
	feasible, unknown := checkReplaySet(qs, nil, 0, tl)
	if tl.failed != 0 || feasible == 0 || unknown != 0 {
		t.Fatalf("replay set: %d failed (%q), %d feasible, %d unknown", tl.failed, tl.notes, feasible, unknown)
	}
}

func TestStorageReplayGapCounted(t *testing.T) {
	tl, st := sweepOne(t, "promise-ultra133", corpus.Buggy, func(e []string) []string { return e })
	if tl.failed != 0 || st.unsupported != len(st.bugs) || st.unsupported == 0 {
		t.Fatalf("storage sweep: %d/%d failed (%q), %d of %d bug traces unsupported", tl.failed, tl.attempted, tl.notes, st.unsupported, len(st.bugs))
	}
	// On an NDIS driver the replayer resolves every entry, so nothing is
	// set aside.
	_, st = sweepOne(t, "rtl8029", corpus.Buggy, func(e []string) []string { return e })
	if st.unsupported != 0 {
		t.Fatalf("rtl8029: %d bug traces counted as unsupported", st.unsupported)
	}
}

func TestForcedFailureRaisesFailRatio(t *testing.T) {
	// A fixed variant that is expected to report a bug: the session's
	// (empty) bug-class set no longer matches.
	tl, _ := sweepOne(t, "ddk-sample-synthetic", corpus.Fixed, func([]string) []string { return []string{"race condition"} })
	if tl.failed != 1 || tl.failRatio() <= 0 {
		t.Fatalf("forced class mismatch: %d/%d failed, ratio %v", tl.failed, tl.attempted, tl.failRatio())
	}

	// A forked branch whose other side is unsatisfiable, a taken side the
	// model violates, and an unforked other side that is satisfiable. The
	// same unforked side after a concretization is not checked.
	x := expr.Sym(1)
	qs := []replayQuery{
		{driver: "forged", cs: []*expr.Expr{expr.Eq(x, expr.Const(5)), expr.Ne(x, expr.Const(5))}, forked: true},
		{driver: "forged", cs: []*expr.Expr{expr.Eq(x, expr.Const(5))}, taken: true, model: expr.Assignment{1: 6}},
		{driver: "forged", cs: []*expr.Expr{expr.Eq(x, expr.Const(5))}},
		{driver: "forged", cs: []*expr.Expr{expr.Eq(x, expr.Const(5))}, pinned: true},
	}
	var qt tally
	checkReplaySet(qs, nil, 0, &qt)
	if qt.failed != 3 || qt.attempted != 3 || unchecked(qs) != 1 {
		t.Fatalf("forged replay queries: %d/%d failed (%q), %d unchecked, want 3/3 and 1", qt.failed, qt.attempted, qt.notes, unchecked(qs))
	}
}

func TestFuzzCheckFlagsMissingClass(t *testing.T) {
	tg, err := assemble("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runCampaign(context.Background(), &tg, 1, 3000, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.rep.Crashes) == 0 {
		t.Fatal("campaign found no crashes to replay")
	}
	tg.expected = []string{"no such class"}
	var tl tally
	checkCampaign(c, nil, 0, &tl)
	if tl.failed != 1 || tl.attempted != len(c.rep.Crashes)+1 {
		t.Fatalf("%d/%d failed (%q); want only the missing class to fail", tl.failed, tl.attempted, tl.notes)
	}
}

func TestFleetReplayMatchesManager(t *testing.T) {
	ctx := context.Background()
	f, err := setupFleet(ctx, t.TempDir(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	var tl tally
	st := f.replay(ctx, time.Now().Add(200*time.Millisecond), nil, 0, &tl)
	if tl.failed != 0 || st.rpcs == 0 || st.leaders == 0 {
		t.Fatalf("fleet replay: %d/%d failed (%q), %d RPCs, %d leaders", tl.failed, tl.attempted, tl.notes, st.rpcs, st.leaders)
	}
	// A feed the manager never received makes the final set check fail.
	f.clients[0].feeds["forged"] = true
	st = f.replay(ctx, time.Now(), nil, 0, &tl)
	if tl.failed != 1 {
		t.Fatalf("forged sent feed: %d failed (%q), want 1", tl.failed, tl.notes)
	}
}
