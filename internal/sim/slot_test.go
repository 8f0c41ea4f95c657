package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

// field returns a settable view of a (possibly unexported) struct field.
func field(v reflect.Value, i int) reflect.Value {
	f := v.Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// poison sets every leaf of v to a non-zero value.
func poison(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0x5a)
	case reflect.Struct:
		for i := range v.NumField() {
			poison(t, field(v, i))
		}
	case reflect.Array:
		for i := range v.Len() {
			poison(t, v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("poison: unhandled kind %s", v.Kind())
	}
}

// TestDispatchResetsReusedSlot guards the in-place window-entry build in
// dispatchInst: dispatching into a slot whose every field holds stale
// non-zero data must produce exactly the entry a zeroed slot gets, which is
// what building a fresh dyn literal produces. A dyn field added later but
// not reset in dispatchInst fails here.
func TestDispatchResetsReusedSlot(t *testing.T) {
	p := sumLoop(t, 10)
	clean := mustSim(t, DefaultConfig(), p)
	stale := mustSim(t, DefaultConfig(), p)
	for _, s := range []*Simulator{clean, stale} {
		s.fetch(false)
		if len(s.pending) == 0 {
			t.Fatal("first fetch delivered no instructions")
		}
	}
	slot := reflect.ValueOf(&stale.window[stale.eng.NextSeq()&stale.mask]).Elem()
	poison(t, slot)
	for i := range slot.NumField() {
		if field(slot, i).IsZero() {
			t.Fatalf("poison left dyn.%s zero", slot.Type().Field(i).Name)
		}
	}
	for _, s := range []*Simulator{clean, stale} {
		s.dispatchInst(&s.pending[0], s.pendingRec)
	}
	want := reflect.ValueOf(&clean.window[(clean.eng.NextSeq()-1)&clean.mask]).Elem()
	got := reflect.ValueOf(&stale.window[(stale.eng.NextSeq()-1)&stale.mask]).Elem()
	for i := range got.NumField() {
		g, w := field(got, i).Interface(), field(want, i).Interface()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("dyn.%s = %+v after reuse, want %+v", got.Type().Field(i).Name, g, w)
		}
	}
}
