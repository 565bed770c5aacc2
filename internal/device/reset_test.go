package device

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"isolbench/internal/sim"
)

// poison writes a non-zero value of v's type into v, reaching through
// unexported fields via unsafe. Used to prove Reset clears everything.
func poison(v reflect.Value) {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	case reflect.String:
		v.SetString("poison")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func(args []reflect.Value) []reflect.Value {
			return nil
		}))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Interface:
		if v.NumMethod() != 0 {
			panic("poison: add a value for interface " + v.Type().String())
		}
		v.Set(reflect.ValueOf(7))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			poison(v.Field(i))
		}
	default:
		panic("poison: add a case for kind " + v.Kind().String())
	}
}

// TestRequestResetCoversAllFields poisons every field of a Request —
// exported or not — through reflection, calls Reset, and demands each
// one reads as zero again (heapIdx resets to its -1 sentinel). The
// point is to fail the moment someone adds a field to Request without
// teaching Reset about it: pooled requests are recycled across I/Os,
// and one leaked field silently corrupts the next lifecycle. If this
// test fails, extend Request.Reset (and keep it a whole-struct
// assignment unless a field must survive reuse).
func TestRequestResetCoversAllFields(t *testing.T) {
	r := &Request{}
	rv := reflect.ValueOf(r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		poison(rv.Field(i))
	}
	// Sanity: the poison really landed everywhere.
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("poison failed to set field %s", rv.Type().Field(i).Name)
		}
	}

	r.Reset()

	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		fv := rv.Field(i)
		if f.Name == "heapIdx" {
			if got := fv.Int(); got != -1 {
				t.Errorf("heapIdx after Reset = %d, want the -1 not-in-heap sentinel", got)
			}
			continue
		}
		if !fv.IsZero() {
			t.Errorf("field %s survives Reset; pooled requests would leak it into the next I/O", f.Name)
		}
	}
}

// TestPoolRecyclesReset proves the pool hands back fully reset requests
// even when the freed request was dirty.
func TestPoolRecyclesReset(t *testing.T) {
	p := NewPool()
	r := p.Get()
	r.ID = 42
	r.Failed = true
	r.OnComplete = func(*Request) {}
	p.Put(r)
	r2 := p.Get()
	if r2 != r {
		t.Fatal("pool should reuse the freed request (LIFO)")
	}
	if r2.ID != 0 || r2.Failed || r2.OnComplete != nil {
		t.Fatal("pool returned a dirty request")
	}
	gets, puts := p.Stats()
	if gets != 2 || puts != 1 {
		t.Fatalf("stats = %d gets, %d puts", gets, puts)
	}
}

// TestPoolPutRejectsArmedWatchdog: the engine's timer slot table points
// into a request whose watchdog is pending, so pooling (and so
// resetting) it would corrupt the timer heap. Put must refuse loudly, and accept the same
// request once the watchdog is cancelled.
func TestPoolPutRejectsArmedWatchdog(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPool()
	r := p.Get()
	r.ID = 9
	eng.Reschedule(&r.Watchdog, 100, func(any) { t.Error("cancelled watchdog fired") }, r)

	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "watchdog still armed") {
				t.Fatalf("Put of an armed request: recovered %q, want the armed-watchdog panic", msg)
			}
		}()
		p.Put(r)
	}()
	if _, puts := p.Stats(); puts != 0 || !r.Watchdog.Pending() || r.ID != 9 {
		t.Fatalf("rejected Put still touched the request: puts=%d pending=%v id=%d",
			puts, r.Watchdog.Pending(), r.ID)
	}

	eng.Cancel(&r.Watchdog)
	p.Put(r)
	eng.Run()
	if eng.Pending() != 0 || eng.Processed() != 0 {
		t.Fatalf("engine after cancel: pending=%d processed=%d", eng.Pending(), eng.Processed())
	}
}
