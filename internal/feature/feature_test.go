package feature

import "testing"

func TestRegistryShape(t *testing.T) {
	if Count != 27 {
		t.Fatalf("Count = %d, want 27", Count)
	}
	for _, c := range Classes {
		if got := len(ByClass(c)); got != 9 {
			t.Errorf("class %s has %d features, want 9", c, got)
		}
	}
	seen := map[string]bool{}
	for _, f := range infos {
		if f.Name == "" || f.Component == "" || f.Desc == "" {
			t.Errorf("feature %d has empty metadata", f.ID)
		}
		if seen[f.Name] {
			t.Errorf("duplicate feature name %q", f.Name)
		}
		seen[f.Name] = true
	}
}

func TestSetOperations(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Error("zero set not empty")
	}
	s.Add(Qualify)
	s.Add(Macro)
	if !s.Has(Qualify) || !s.Has(Macro) || s.Has(SelAbbrev) {
		t.Error("membership wrong")
	}
	if !s.HasClass(ClassTransformation) || !s.HasClass(ClassEmulation) || s.HasClass(ClassTranslation) {
		t.Error("class membership wrong")
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != Qualify || ids[1] != Macro {
		t.Errorf("IDs = %v", ids)
	}
	var o Set
	o.Add(SelAbbrev)
	s.Union(o)
	if !s.Has(SelAbbrev) {
		t.Error("union failed")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Qualify) // must not panic
	if !r.Set().Empty() {
		t.Error("nil recorder recorded something")
	}
	r.Reset()
}

func TestRecorder(t *testing.T) {
	r := &Recorder{}
	r.Record(Qualify)
	r.Record(Qualify)
	r.Record(DateIntCompare)
	s := r.Set()
	if len(s.IDs()) != 2 {
		t.Errorf("IDs = %v", s.IDs())
	}
	r.Reset()
	if !r.Set().Empty() {
		t.Error("Reset failed")
	}
}
