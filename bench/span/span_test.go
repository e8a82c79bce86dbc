package span

import "testing"

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, StartUS: 0, EndUS: 1000},
		{ID: 2, Parent: 1, StartUS: 100, EndUS: 400},  // a worker
		{ID: 3, Parent: 1, StartUS: 300, EndUS: 600},  // overlaps it: 300..400 counts once
		{ID: 4, Parent: 1, StartUS: 900, EndUS: 1200}, // runs past the parent: clipped at 1000
		{ID: 5, Parent: 2, StartUS: 150, EndUS: 250},
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 1000 - 500 - 100, 2: 300 - 100, 3: 300, 4: 300, 5: 100}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

func TestGraftRenumbersAndShifts(t *testing.T) {
	r := NewRecorder()
	r.Under("w")
	root := r.Start("root", 0)
	r.Graft(root.ID(), 50, []Span{{ID: 1, Name: "a", StartUS: 0, EndUS: 10, Workload: "v"}, {ID: 2, Parent: 1, Name: "b", StartUS: 2, EndUS: 4}})
	got := r.Spans()
	if len(got) != 3 || got[1].ID != 2 || got[1].Parent != 1 || got[2].Parent != 2 {
		t.Fatalf("grafted spans mis-numbered: %+v", got)
	}
	if got[0].Workload != "w" || got[1].Workload != "v" || got[2].Workload != "w" {
		t.Fatalf("a grafted span keeps its own workload or joins the current one: %+v", got)
	}
	if got[1].StartUS != 50 || got[2].EndUS != 54 {
		t.Fatalf("grafted spans not shifted onto the recorder's clock: %+v", got)
	}
}
