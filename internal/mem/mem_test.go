package mem_test

import (
	"testing"

	"tmsync/internal/mem"
	"tmsync/internal/stm/eager"
	"tmsync/internal/tm"
)

func TestVarTransactionalAccess(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, eager.New)
	thr := sys.NewThread()
	var v mem.Var
	thr.Atomic(func(tx *tm.Tx) {
		if v.Get(tx) != 0 {
			t.Error("zero value not zero")
		}
		v.Set(tx, 41)
		if got := v.Add(tx, 1); got != 42 {
			t.Errorf("Add = %d", got)
		}
	})
	if v.Load() != 42 {
		t.Fatalf("Load = %d", v.Load())
	}
	v.Store(7)
	thr.Atomic(func(tx *tm.Tx) {
		if v.Get(tx) != 7 {
			t.Error("Store not visible transactionally")
		}
	})
}

func TestVarAddWraps(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, eager.New)
	thr := sys.NewThread()
	var v mem.Var
	v.Store(^uint64(0))
	thr.Atomic(func(tx *tm.Tx) {
		if got := v.Add(tx, 1); got != 0 {
			t.Errorf("wrap Add = %d", got)
		}
	})
}

func TestArray(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, eager.New)
	thr := sys.NewThread()
	a := mem.NewArray(8)
	if a.Len() != 8 {
		t.Fatalf("Len = %d", a.Len())
	}
	thr.Atomic(func(tx *tm.Tx) {
		for i := 0; i < a.Len(); i++ {
			a.Set(tx, i, uint64(i)*10)
		}
	})
	thr.Atomic(func(tx *tm.Tx) {
		for i := 0; i < a.Len(); i++ {
			if a.Get(tx, i) != uint64(i)*10 {
				t.Errorf("a[%d] = %d", i, a.Get(tx, i))
			}
		}
	})
	a.Store(3, 999)
	if a.Load(3) != 999 {
		t.Fatal("non-transactional access broken")
	}
	if a.Addr(3) == a.Addr(4) {
		t.Fatal("distinct elements share an address")
	}
}
