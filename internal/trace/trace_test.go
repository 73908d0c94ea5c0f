package trace

import "testing"

func TestClassPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() || IntALU.IsMem() {
		t.Error("IsMem wrong")
	}
	if Load.String() != "Load" || Class(200).String() == "" {
		t.Error("String wrong")
	}
}

func TestStreamCounting(t *testing.T) {
	s := &Stream{Uops: []Uop{
		{First: true, Class: IntALU},
		{First: false, Class: Load},
		{First: true, Class: Store},
	}}
	if s.Instructions() != 2 || s.Len() != 3 {
		t.Error("counts wrong")
	}
	if upi := s.UopsPerInstruction(); upi != 1.5 {
		t.Errorf("upi = %v", upi)
	}
	counts := s.Counts()
	if counts[IntALU] != 1 || counts[Load] != 1 || counts[Store] != 1 {
		t.Errorf("counts = %v", counts)
	}
}
