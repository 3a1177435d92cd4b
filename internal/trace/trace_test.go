package trace

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kernel"
)

// findBugs runs DDT on a corpus driver and returns the engine + report.
func findBugs(t *testing.T, driver string) (*core.Engine, []*core.Bug) {
	t.Helper()
	img, err := corpus.Build(driver, corpus.Buggy)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	e := core.NewEngine(img, core.DefaultOptions())
	if _, err := e.TestDriver(context.Background()); err != nil {
		t.Fatalf("test: %v", err)
	}
	if len(e.Bugs()) == 0 {
		t.Fatalf("no bugs found in %s", driver)
	}
	return e, e.Bugs()
}

func TestTraceRoundTrip(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	f := New(bugs[0], "rtl8029", true, e.EffectiveRegistry())
	blob, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports traces rarely exceed 1 MB per bug.
	if len(blob) > 1<<20 {
		t.Errorf("trace size = %d bytes, want <= 1MB", len(blob))
	}
	f2, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Driver != f.Driver || f2.Bug != f.Bug || len(f2.Events) != len(f.Events) ||
		len(f2.Symbols) != len(f.Symbols) {
		t.Errorf("round trip mismatch")
	}
}

func TestTraceSaveLoad(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	f := New(bugs[0], "rtl8029", true, e.EffectiveRegistry())
	path := t.TempDir() + "/bug.ddtrace"
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	f2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Bug.Class != f.Bug.Class {
		t.Errorf("loaded class = %q", f2.Bug.Class)
	}
}

func TestTraceSummary(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	for _, b := range bugs {
		f := New(b, "rtl8029", true, e.EffectiveRegistry())
		s := f.Summary()
		if !strings.Contains(s, b.Class) {
			t.Errorf("summary missing class %q:\n%s", b.Class, s)
		}
		if !strings.Contains(s, "DriverEntry") {
			t.Errorf("summary missing entry chain:\n%s", s)
		}
	}
}

// TestReplayReproducesEveryTable2Bug is the §3.5 guarantee: every reported
// bug comes with a trace that re-executes deterministically to the same
// failure — the zero-false-positive evidence.
func TestReplayReproducesEveryTable2Bug(t *testing.T) {
	for _, driver := range []string{"rtl8029", "amd-pcnet", "intel-pro1000", "intel-pro100", "ensoniq-audiopci", "intel-ac97"} {
		e, bugs := findBugs(t, driver)
		img, _ := corpus.Build(driver, corpus.Buggy)
		for _, b := range bugs {
			f := New(b, driver, true, e.EffectiveRegistry())
			res, err := Replay(f, img)
			if err != nil {
				t.Fatalf("%s/%s: replay error: %v", driver, b.Class, err)
			}
			if !res.Reproduced {
				t.Errorf("%s: bug [%s] at %#x NOT reproduced: %s (divergences: %v)",
					driver, b.Class, b.Fault.PC, res, res.Divergences)
			}
		}
	}
}

func TestReplayRejectsWrongImage(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	f := New(bugs[0], "rtl8029", true, e.EffectiveRegistry())
	other, _ := corpus.Build("amd-pcnet", corpus.Buggy)
	if _, err := Replay(f, other); err == nil {
		t.Error("replay against the wrong driver image should fail")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a trace")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestReplayInfoOIDsWithoutAnnotations: in annotation-free mode entry
// arguments stay concrete, and the replay passes the same representative
// OIDs as the workload: OID_GEN_SUPPORTED_LIST to QueryInformation and
// OID_GEN_CURRENT_PACKET_FILTER to SetInformation.
func TestReplayInfoOIDsWithoutAnnotations(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	r, s := newReplayer(&File{Driver: img.Name}, img)
	kernel.Of(s).Miniport = &kernel.MiniportChars{QueryInfoPC: 0x1000, SetInfoPC: 0x2000}
	for entry, want := range map[string]uint32{
		"QueryInformation": kernel.OIDGenSupportedList,
		"SetInformation":   kernel.OIDGenCurrentPacketFil,
	} {
		_, args, ok := r.resolveEntry(s, entry)
		if !ok || len(args) < 2 {
			t.Fatalf("%s: unresolved (args %v)", entry, args)
		}
		if !args[1].IsConst() || args[1].ConstVal() != want {
			t.Errorf("%s: OID argument %v, want %#x", entry, args[1], want)
		}
	}
}
