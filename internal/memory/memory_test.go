package memory

import "testing"

func TestNewObjectZeroed(t *testing.T) {
	o := NewObject(7, 4)
	if o.ID != 7 || len(o.Data) != 4 {
		t.Fatalf("object = %+v", o)
	}
	for _, w := range o.Data {
		if w != 0 {
			t.Fatal("not zeroed")
		}
	}
	if o.State != ReadWrite {
		t.Fatalf("fresh state = %v", o.State)
	}
}

func TestNewObjectRejectsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewObject(1, 0)
}

func TestAccessStateString(t *testing.T) {
	if Invalid.String() != "INV" || ReadOnly.String() != "RO" || ReadWrite.String() != "RW" {
		t.Fatal("state names wrong")
	}
	if AccessState(9).String() == "" {
		t.Fatal("unknown state prints empty")
	}
}
