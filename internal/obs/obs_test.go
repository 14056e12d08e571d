package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestBusNilSafe(t *testing.T) {
	var b *Bus
	b.Emit(KindFault, 0, -1, 0, 0, 0, 0) // must not panic
	b.EmitNote(KindSalvage, 0, -1, 0, 0, 0, 0, "refused")
	b.Attach(Discard{})
	if b.Emitted() != 0 {
		t.Fatal("nil bus must report nothing")
	}
}

// collect is a sink that keeps every event it is handed.
type collect []Event

func (c *collect) Record(e Event) { *c = append(*c, e) }

// TestBusRingBudget: the bus keeps no ring and drops nothing; every sink
// sees every event, in emission order, numbered 0, 1, 2, ... with no gap.
func TestBusRingBudget(t *testing.T) {
	b := NewBus()
	var got collect
	agg := NewAggregator()
	b.Attach(&got)
	b.Attach(agg)
	for i := 0; i < 5; i++ {
		b.Emit(KindVersionEvict, uint64(i), 0, 7, uint64(0x40*i), 0, 0)
	}
	b.EmitNote(KindSalvage, 9, -1, 7, 0, 0, 0, "restored")
	if b.Emitted() != 6 || len(got) != 6 {
		t.Fatalf("emitted=%d, sink saw %d, want 6/6", b.Emitted(), len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
		if i < 5 && (e.Kind != KindVersionEvict || e.Cycle != uint64(i) || e.Addr != uint64(0x40*i)) {
			t.Fatalf("event %d = %+v, out of emission order", i, e)
		}
	}
	if last := got[5]; last.Kind != KindSalvage || last.Note != "restored" {
		t.Fatalf("last event = %+v", last)
	}
	if n := agg.Timeline()[0].DirtyLines; n != 5 {
		t.Fatalf("aggregator saw %d evicts, want 5", n)
	}
}

// TestBusZeroBudgetStreamsToSinks: an attached JSONL sink receives every
// event as a valid line.
func TestBusZeroBudgetStreamsToSinks(t *testing.T) {
	b := NewBus()
	sink := NewJSONLSink("")
	b.Attach(sink)
	b.Emit(KindEpochAdvance, 10, 2, 5, 0, 4, 1)
	b.EmitNote(KindSalvage, 11, -1, 5, 0, 0, 0, "restored")
	if n, err := ValidateJSONL(bytes.NewReader(sink.Bytes())); err != nil || n != 2 {
		t.Fatalf("JSONL sink: %d lines, err %v; want 2 valid lines", n, err)
	}
}

func TestAppendJSONLGolden(t *testing.T) {
	e := Event{Seq: 3, Cycle: 120, Kind: KindNVMEnqueue, Actor: 5,
		Epoch: 0, Addr: 0x1000, Arg: 64, Aux: 12}
	got := string(AppendJSONL(nil, "", e))
	want := `{"seq":3,"cycle":120,"kind":"nvm_enqueue","actor":5,"epoch":0,"addr":4096,"arg":64,"aux":12}` + "\n"
	if got != want {
		t.Fatalf("encoding:\n got %q\nwant %q", got, want)
	}
	e2 := Event{Kind: KindSalvage, Actor: -1, Epoch: 9, Note: "refused"}
	got2 := string(AppendJSONL(nil, "NVOverlay/btree/s1", e2))
	want2 := `{"seq":0,"cycle":0,"kind":"salvage","actor":-1,"epoch":9,"addr":0,"arg":0,"aux":0,"note":"refused","cell":"NVOverlay/btree/s1"}` + "\n"
	if got2 != want2 {
		t.Fatalf("encoding:\n got %q\nwant %q", got2, want2)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Fatalf("kind %d (%s) does not round-trip", k, k)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

func TestValidateJSONLAccepts(t *testing.T) {
	b := NewBus()
	cellA := NewJSONLSink("cellA")
	b.Attach(cellA)
	b.Emit(KindEpochAdvance, 1, 0, 1, 0, 0, 1)
	b.Emit(KindWalkStart, 2, 0, 1, 0, 3, 0)
	b.EmitNote(KindSalvage, 0, -1, 1, 0, 0, 0, "restored")
	// A second cell's stream restarts at seq 0 — still valid.
	b2 := NewBus()
	cellB := NewJSONLSink("cellB")
	b2.Attach(cellB)
	b2.Emit(KindFault, 0, 2, 0, 0x80, 1, 0)
	n, err := ValidateJSONL(bytes.NewReader(append(cellA.Bytes(), cellB.Bytes()...)))
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if n != 4 {
		t.Fatalf("validated %d lines, want 4", n)
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	cases := []struct {
		name  string
		lines string
		want  string
	}{
		{"not-json", "hello\n", "not a JSON object"},
		{"missing-field", `{"seq":0,"cycle":0,"kind":"fault","actor":0,"epoch":0,"addr":0,"arg":0}` + "\n", `missing field "aux"`},
		{"bad-kind", `{"seq":0,"cycle":0,"kind":"nope","actor":0,"epoch":0,"addr":0,"arg":0,"aux":0}` + "\n", "unknown kind"},
		{"negative-uint", `{"seq":0,"cycle":-1,"kind":"fault","actor":0,"epoch":0,"addr":0,"arg":0,"aux":0}` + "\n", "not a non-negative integer"},
		{"float-seq", `{"seq":0.5,"cycle":0,"kind":"fault","actor":0,"epoch":0,"addr":0,"arg":0,"aux":0}` + "\n", "not a non-negative integer"},
		{"unknown-field", `{"seq":0,"cycle":0,"kind":"fault","actor":0,"epoch":0,"addr":0,"arg":0,"aux":0,"extra":1}` + "\n", `unknown field "extra"`},
		{"seq-gap", `{"seq":0,"cycle":0,"kind":"fault","actor":0,"epoch":0,"addr":0,"arg":0,"aux":0}` + "\n" +
			`{"seq":2,"cycle":0,"kind":"fault","actor":0,"epoch":0,"addr":0,"arg":0,"aux":0}` + "\n", "gapless"},
		{"seq-not-zero", `{"seq":1,"cycle":0,"kind":"fault","actor":0,"epoch":0,"addr":0,"arg":0,"aux":0}` + "\n", "gapless"},
		{"bad-note", `{"seq":0,"cycle":0,"kind":"fault","actor":0,"epoch":0,"addr":0,"arg":0,"aux":0,"note":7}` + "\n", `field "note" is not a string`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateJSONL(strings.NewReader(tc.lines))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// replayEvents is a small fixed stream exercising every aggregation rule.
func replayEvents(b *Bus) {
	b.Emit(KindEpochAdvance, 10, 0, 1, 0, 0, 1)
	b.Emit(KindVersionEvict, 12, 0, 1, 0x40, 0, 0)
	b.Emit(KindVersionEvict, 14, 0, 1, 0x80, 0, 0)
	b.Emit(KindWalkStart, 20, 0, 1, 0, 2, 0)
	b.Emit(KindNVMEnqueue, 22, 1, 0, 0x1000, 64, 5) // epoch-less -> epoch 1
	b.Emit(KindWalkEnd, 30, 0, 1, 0, 2, 0)
	b.Emit(KindOMCSeal, 31, 0, 1, 2, 1, 0)
	b.Emit(KindEpochAdvance, 40, 0, 2, 0, 1, 0)
	b.Emit(KindNVMEnqueue, 41, 1, 0, 0x1040, 64, 9) // -> epoch 2
	b.Emit(KindFault, 0, 1, 0, 0x1040, 0, 2)        // -> epoch 2
	b.Emit(KindOMCCommit, 45, 0, 1, 2, 1, 0)
}

func TestAggregatorRollup(t *testing.T) {
	b := NewBus()
	a := NewAggregator()
	b.Attach(a)
	replayEvents(b)
	tl := a.Timeline()
	if len(tl) != 2 {
		t.Fatalf("timeline has %d epochs, want 2: %+v", len(tl), tl)
	}
	e1, e2 := tl[0], tl[1]
	if e1.Epoch != 1 || e1.Advances != 1 || e1.DirtyLines != 2 ||
		e1.Walks != 1 || e1.WalkCycles != 10 ||
		e1.NVMBytes != 64 || e1.NVMWrites != 1 || e1.MaxBankDepth != 5 ||
		e1.Seals != 1 || e1.Commits != 1 || e1.Faults != 0 {
		t.Fatalf("epoch 1 rollup = %+v", e1)
	}
	if e2.Epoch != 2 || e2.Advances != 1 || e2.NVMBytes != 64 ||
		e2.MaxBankDepth != 9 || e2.Faults != 1 {
		t.Fatalf("epoch 2 rollup = %+v", e2)
	}
	if a.BankDepth.Count != 2 || a.BankDepth.Max != 9 {
		t.Fatalf("bank-depth histogram = %+v", a.BankDepth)
	}
	if a.WalkSpan.Count != 1 || a.WalkSpan.Sum != 10 {
		t.Fatalf("walk-span histogram = %+v", a.WalkSpan)
	}
}

func TestAggregatorUnmatchedWalkEnd(t *testing.T) {
	a := NewAggregator()
	a.Record(Event{Kind: KindWalkEnd, Cycle: 5, Actor: 3, Epoch: 1})
	if a.WalkSpan.Count != 0 || len(a.Timeline()) != 0 {
		t.Fatal("an unmatched walk end must be ignored")
	}
}
