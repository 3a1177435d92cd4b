package fuzz

import (
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/vm"
)

// TestBridgedFeedAlignment: the executor and the engine mint injected
// values at the same sites in the same order, so a feed bridged from an
// engine bug is consumed word for word. For every bug whose replay runs
// the bug path's entry sequence, the executor must read one feed word per
// engine symbol. A misaligned argument builder (say, one buffer where the
// engine mints two) leaves words unread and shifts every later injection.
func TestBridgedFeedAlignment(t *testing.T) {
	for _, name := range []string{"rtl8029", "intel-pro100", "intel-ac97", "ensoniq-audiopci", "promise-ultra133"} {
		t.Run(name, func(t *testing.T) {
			img, err := corpus.Build(name, corpus.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.NewEngine(img, core.DefaultOptions()).TestDriver(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, b := range rep.Bugs {
				var entries []string
				for _, ev := range b.Trace {
					if ev.Kind == vm.EvEntry {
						entries = append(entries, ev.Name)
					}
				}
				feed := FromBug(b)
				// FromBug does not encode scenario edge choices. The first
				// fork bit answers a declined annotation fork on the way;
				// the next one takes the SurpriseRemoval edge.
				if slices.Contains(entries, "SurpriseRemoval") {
					feed.Forks = []byte{0, 1}
				}
				res := NewExecutor(img, nil, DefaultOptions()).Run(feed)
				if !slices.Equal(res.Entries, entries) {
					continue
				}
				checked++
				if res.ConsumedData != 4*len(b.Symbols) {
					t.Errorf("bug %s (%v): executor read %d feed words for %d engine symbols",
						b.Key(), entries, res.ConsumedData/4, len(b.Symbols))
				}
			}
			if checked == 0 {
				t.Fatalf("none of %d bugs replayed its entry sequence", len(rep.Bugs))
			}
		})
	}
}
