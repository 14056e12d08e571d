package fault

import (
	"testing"

	"repro/internal/sim"
)

func TestClassConfigs(t *testing.T) {
	for _, name := range Classes {
		cfg, err := ClassConfig(name, 1)
		if err != nil {
			t.Fatalf("class %q rejected: %v", name, err)
		}
		if !cfg.Enabled() {
			t.Fatalf("class %q produced a disabled config", name)
		}
	}
	if _, err := ClassConfig("melt", 1); err == nil {
		t.Fatal("unknown class accepted")
	}
	if !ValidClass("") || !ValidClass("all") || ValidClass("melt") {
		t.Fatal("ValidClass envelope wrong")
	}
}

// TestSimFaultClassMirror pins sim.Config.Validate's copy of the fault-class
// vocabulary (sim cannot import fault) to ClassConfig: every name ClassConfig
// accepts validates, and a name both reject stays rejected.
func TestSimFaultClassMirror(t *testing.T) {
	validate := func(name string) error {
		cfg := sim.DefaultConfig()
		cfg.FaultClass = name
		return cfg.Validate()
	}
	for _, name := range append([]string{"", "all"}, Classes...) {
		if _, err := ClassConfig(name, 1); err != nil {
			t.Fatalf("ClassConfig(%q): %v", name, err)
		}
		if err := validate(name); err != nil {
			t.Errorf("sim rejects fault class %q that ClassConfig accepts: %v", name, err)
		}
	}
	if _, err := ClassConfig("melt", 1); err == nil {
		t.Fatal("ClassConfig accepted a bogus class")
	}
	if err := validate("melt"); err == nil {
		t.Fatal("sim accepted a bogus fault class")
	}
}

func TestInjectorNilSafe(t *testing.T) {
	// The device guards every draw behind Enabled(); nil and zero-config
	// injectors must both read as off.
	var inj *Injector
	if inj.Enabled() {
		t.Fatal("nil injector claims enabled")
	}
	if New(Config{Seed: 1}).Enabled() {
		t.Fatal("zero-config injector claims enabled")
	}
}

// TestInjectorDeterminism: the same seed must draw the same fault decisions
// and record the same canonical schedule, the replay contract every higher
// layer depends on.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (string, int) {
		cfg, err := ClassConfig("all", 99)
		if err != nil {
			t.Fatal(err)
		}
		inj := New(cfg)
		for i := uint64(0); i < 200; i++ {
			addr := 0x1000 + i*64
			attempt := 0
			for inj.NAK(addr, attempt) {
				attempt++
				if attempt >= MaxNAKRetries {
					inj.NoteNAKDrop(addr)
					break
				}
			}
			if inj.BankLost(int(i%16), int(i%5)) {
				continue
			}
			inj.Tear(int(i%16), addr, 3)
		}
		for i := 0; i < inj.FlipCount(); i++ {
			idx, bit := inj.Flip(64)
			inj.NoteFlip(uint64(0x2000+idx*8), bit)
		}
		return inj.Schedule(), inj.Total()
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 {
		t.Fatalf("schedules differ:\n%s\n---\n%s", s1, s2)
	}
	if n1 != n2 || n1 == 0 {
		t.Fatalf("event counts %d vs %d (must match and be non-zero)", n1, n2)
	}
}

func TestTearKeepsPrefix(t *testing.T) {
	cfg, err := ClassConfig("torn", 7)
	if err != nil {
		t.Fatal(err)
	}
	inj := New(cfg)
	tore := 0
	for i := 0; i < 100; i++ {
		keep, torn := inj.Tear(0, uint64(i)*64, 4)
		if !torn {
			t.Fatalf("torn class must always tear (i=%d)", i)
		}
		if keep < 0 || keep >= 4 {
			t.Fatalf("torn prefix %d out of [0,4)", keep)
		}
		tore++
	}
	if inj.Count(Torn) != int64(tore) {
		t.Fatalf("counted %d tears, want %d", inj.Count(Torn), tore)
	}
}
