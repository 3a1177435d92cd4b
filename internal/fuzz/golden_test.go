package fuzz

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// execGoldenPath pins what the executor does with a fixed set of
// mutator-generated feeds on every corpus driver, buggy and fixed: one line
// per feed with the entries that ran, the crash key, steps, distinct blocks
// and the consumed data/fork/IRQ cursors. Any change to the workload walk,
// the argument builders or the feed cursors shows up as a line diff.
const execGoldenPath = "testdata/exec_golden.txt"

// execGoldenFeeds is the number of feeds run per (driver, variant).
const execGoldenFeeds = 24

// execGoldenRecords runs the golden feed set and renders one line per feed.
func execGoldenRecords(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, name := range corpus.Names() {
		for _, v := range []corpus.Variant{corpus.Buggy, corpus.Fixed} {
			img, err := corpus.Build(name, v)
			if err != nil {
				t.Fatal(err)
			}
			vname := "buggy"
			if v == corpus.Fixed {
				vname = "fixed"
			}
			ex := NewExecutor(img, nil, DefaultOptions())
			mu := NewMutator(13)
			base := &Feed{Data: make([]byte, 96)}
			for i := 0; i < execGoldenFeeds; i++ {
				var feed *Feed
				if i%2 == 0 {
					feed = mu.Generate()
				} else {
					feed = mu.Mutate(base, nil)
				}
				r := ex.Run(feed)
				crash := "-"
				if r.Crash != nil {
					crash = r.Crash.Key()
				}
				out = append(out, fmt.Sprintf("%s/%s %d steps=%d blocks=%d data=%d forks=%d irq=%d crash=%s %s",
					name, vname, i, r.Steps, r.Blocks, r.ConsumedData, r.ConsumedForks, r.ConsumedIRQ,
					crash, strings.Join(r.Entries, ",")))
			}
		}
	}
	return out
}

// TestExecGolden compares the executor's per-feed records with the pinned
// golden file.
func TestExecGolden(t *testing.T) {
	raw, err := os.ReadFile(execGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := execGoldenRecords(t)
	if len(got) != len(want) {
		t.Fatalf("%d records, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("record %d:\n  got  %s\n  want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d records differ", bad, len(got))
	}
}
