package core

import (
	"maps"
	"sort"
	"testing"

	"repro/internal/corpus"
)

// TestTable2EveryDriverEveryBug is the headline result: DDT finds all 14
// previously-unknown bugs of Table 2 across the six drivers — the exact
// classes, no more, no fewer — and reports zero false positives on the
// corrected builds ("we encountered no false positives during testing").
func TestTable2EveryDriverEveryBug(t *testing.T) {
	total := 0
	for _, name := range []string{"rtl8029", "amd-pcnet", "intel-pro1000", "intel-pro100", "ensoniq-audiopci", "intel-ac97"} {
		spec, ok := corpus.Get(name)
		if !ok {
			t.Fatalf("missing corpus driver %s", name)
		}
		rep := runDDT(t, name, corpus.Buggy, DefaultOptions())
		got := make([]string, 0, len(rep.Bugs))
		for _, b := range rep.Bugs {
			got = append(got, b.Class)
		}
		want := append([]string(nil), spec.ExpectedBugs...)
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Errorf("%s: found %d bugs %v, want %d %v", name, len(got), got, len(want), want)
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: classes %v, want %v", name, got, want)
					break
				}
			}
		}
		total += len(rep.Bugs)

		fixedRep := runDDT(t, name, corpus.Fixed, DefaultOptions())
		for _, b := range fixedRep.Bugs {
			t.Errorf("%s fixed: FALSE POSITIVE %s", name, b.Describe())
		}
	}
	if total != 14 {
		t.Errorf("total bugs across the corpus = %d, want 14 (Table 2)", total)
	}
}

// TestSampleDriverBugs covers the §5.1 SDV comparison inputs: DDT finds all
// 8 seeded sample bugs and all 5 injected synthetic bugs, with clean fixed
// variants.
func TestSampleDriverBugs(t *testing.T) {
	for _, name := range []string{"ddk-sample", "ddk-sample-synthetic"} {
		spec, _ := corpus.Get(name)
		rep := runDDT(t, name, corpus.Buggy, DefaultOptions())
		if len(rep.Bugs) != len(spec.ExpectedBugs) {
			for _, b := range rep.Bugs {
				t.Logf("  %s", b.Describe())
			}
			t.Errorf("%s: %d bugs, want %d", name, len(rep.Bugs), len(spec.ExpectedBugs))
		}
		fixedRep := runDDT(t, name, corpus.Fixed, DefaultOptions())
		for _, b := range fixedRep.Bugs {
			t.Errorf("%s fixed: FALSE POSITIVE %s", name, b.Describe())
		}
	}
}

// TestAnnotationAblation reproduces §5.1's annotation experiment: with all
// annotations turned off, the race-condition and hardware-related bugs are
// still found (their detection does not depend on annotations), while the
// memory leaks and segmentation faults are missed.
func TestAnnotationAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Annotations = false

	raceFound := 0
	othersFound := 0
	for _, name := range []string{"rtl8029", "amd-pcnet", "intel-pro1000", "intel-pro100", "ensoniq-audiopci", "intel-ac97"} {
		rep := runDDT(t, name, corpus.Buggy, opts)
		for _, b := range rep.Bugs {
			switch b.Class {
			case "race condition", "kernel crash", "deadlock":
				raceFound++
			default:
				othersFound++
				t.Errorf("%s: %q found without annotations: %s", name, b.Class, b.Describe())
			}
		}
	}
	// All four race bugs plus the Pro/100 DPC crash are annotation
	// independent.
	if raceFound < 5 {
		t.Errorf("race/interrupt bugs found without annotations = %d, want >= 5", raceFound)
	}
	if othersFound != 0 {
		t.Errorf("leak/segfault bugs found without annotations = %d, want 0 (ablation)", othersFound)
	}
}

// TestSymbolicInterruptsAblation: without symbolic interrupts the
// interrupt-timing races disappear, everything else stays.
func TestSymbolicInterruptsAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.SymbolicInterrupts = false
	rep := runDDT(t, "rtl8029", corpus.Buggy, opts)
	for _, b := range rep.Bugs {
		if b.Class == "race condition" {
			t.Errorf("race found without symbolic interrupts: %s", b.Describe())
		}
	}
	got := rep.CountByClass()
	for _, class := range []string{"resource leak", "memory corruption", "segmentation fault"} {
		if got[class] == 0 {
			t.Errorf("class %q lost when only interrupts are disabled", class)
		}
	}
}

// TestDeterminism: two identical runs produce identical reports (the whole
// stack is deterministic, which the figures and replay depend on).
func TestDeterminism(t *testing.T) {
	a := runDDT(t, "rtl8029", corpus.Buggy, DefaultOptions())
	b := runDDT(t, "rtl8029", corpus.Buggy, DefaultOptions())
	if a.Instructions != b.Instructions || a.PathsExplored != b.PathsExplored ||
		a.BlocksCovered != b.BlocksCovered || len(a.Bugs) != len(b.Bugs) {
		t.Errorf("non-deterministic runs: %+v vs %+v", a, b)
	}
	for i := range a.Bugs {
		if a.Bugs[i].Key() != b.Bugs[i].Key() {
			t.Errorf("bug %d differs: %s vs %s", i, a.Bugs[i].Key(), b.Bugs[i].Key())
		}
	}
}

// TestBugModelsDeterministic: two sequential sessions of every buggy
// corpus driver report the same bugs with the same models. A model is the
// first one the solver's search finds, so this pins that the search order
// depends on the constraints alone, not on map iteration.
func TestBugModelsDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	for _, name := range corpus.Names() {
		a := runDDT(t, name, corpus.Buggy, opts)
		b := runDDT(t, name, corpus.Buggy, opts)
		if len(a.Bugs) != len(b.Bugs) {
			t.Errorf("%s: %d bugs, then %d", name, len(a.Bugs), len(b.Bugs))
			continue
		}
		for i := range a.Bugs {
			if a.Bugs[i].Key() != b.Bugs[i].Key() || !maps.Equal(a.Bugs[i].Model, b.Bugs[i].Model) {
				t.Errorf("%s: bug %d is %s %v, then %s %v", name, i,
					a.Bugs[i].Key(), a.Bugs[i].Model, b.Bugs[i].Key(), b.Bugs[i].Model)
			}
		}
	}
}

// TestBugEvidenceCompleteness: every reported bug must carry a non-empty
// trace, a model covering every symbol on the path, and provenance for each
// input (§3.5's promises).
func TestBugEvidenceCompleteness(t *testing.T) {
	rep := runDDT(t, "rtl8029", corpus.Buggy, DefaultOptions())
	for _, b := range rep.Bugs {
		if len(b.Trace) == 0 {
			t.Errorf("%s: empty trace", b.Key())
		}
		for _, si := range b.Symbols {
			if _, ok := b.Model[si.ID]; !ok {
				t.Errorf("%s: symbol %s missing from model", b.Key(), si.Name)
			}
		}
		if b.Inputs() == "" {
			t.Errorf("%s: no inputs rendering", b.Key())
		}
	}
}

func TestStopAtFirstBug(t *testing.T) {
	opts := DefaultOptions()
	opts.StopAtFirstBug = true
	rep := runDDT(t, "rtl8029", corpus.Buggy, opts)
	if len(rep.Bugs) > 1 {
		t.Errorf("stop-at-first-bug run reported %d bugs", len(rep.Bugs))
	}
}
