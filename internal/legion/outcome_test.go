package legion

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/machine"
	"repro/internal/prof"
)

// The runtime's promise is that any execution of a launch stream equals
// running it in issue order (paper §2.2). Each test of it — two
// executors, a switch on and off, a faulted run against a clean one —
// holds its runs to one Outcome and compares them with Diff.

// Stream is a launch stream of an equivalence test: it runs on rt and
// returns the region contents and the reduction values it read.
type Stream func(t *testing.T, rt *Runtime) (data [][]float64, futures []float64)

// Outcome is everything a run lets an observer see.
type Outcome struct {
	Data     [][]float64 // region contents, compared by bits
	Futures  []float64   // reduction values, compared by bits
	Sim      time.Duration
	Analysis time.Duration
	Stats    map[string]int64 // every machine.Stats counter, by field name
	Summary  prof.Summary
	Trace    *prof.Trace         // launches, deps, spans, copies, memory events, marks
	MemUsed  []int64             // by processor
	Valid    [][][]geometry.Rect // by region, then processor, host last
}

// Capture fences rt and records what it lets an observer see: the data
// and futures a stream read, the clocks, every statistics counter,
// sink's profile (none if sink is nil), each processor's memory use,
// and the contents and valid sets of regions.
func Capture(rt *Runtime, sink *prof.Sink, data [][]float64, futures []float64, regions ...*Region) Outcome {
	o := Outcome{
		Data: append(data, Contents(rt, regions...)...), Futures: futures,
		Sim: rt.SimTime(), Analysis: rt.AnalysisTime(), Stats: counters(rt.Stats()),
	}
	if sink != nil {
		o.Summary, o.Trace = sink.Summary(), sink.Snapshot()
	}
	for _, p := range rt.Procs() {
		o.MemUsed = append(o.MemUsed, rt.Mapper().MemUsed(p))
	}
	for _, r := range regions {
		var v [][]geometry.Rect
		for _, p := range append(slices.Clone(rt.Procs()), HostProc) {
			v = append(v, slices.Clone(rt.Mapper().ValidOn(p, r).Rects()))
		}
		o.Valid = append(o.Valid, v)
	}
	return o
}

// Contents fences rt and copies the contents of regions.
func Contents(rt *Runtime, regions ...*Region) [][]float64 {
	rt.Fence()
	var out [][]float64
	for _, r := range regions {
		out = append(out, slices.Clone(r.Float64s()))
	}
	return out
}

// counters returns every counter of st by its field name, an array's
// elements as name[i]. A field that is not a counter panics, so a new
// kind of statistic cannot escape the comparison.
func counters(st *machine.Stats) map[string]int64 {
	out := map[string]int64{}
	load := func(v reflect.Value) int64 { return v.Addr().Interface().(*atomic.Int64).Load() }
	s := reflect.ValueOf(st).Elem()
	for i := range s.NumField() {
		f, name := s.Field(i), s.Type().Field(i).Name
		if f.Kind() != reflect.Array {
			out[name] = load(f)
			continue
		}
		for j := range f.Len() {
			out[name+"["+strconv.Itoa(j)+"]"] = load(f.Index(j))
		}
	}
	return out
}

// Omit leaves the field at Path, as Diff names it ("Trace.Copies",
// "Stats.Copies"), out of a comparison; Reason says why it may differ.
// A path names a list element by its index or, with [*] for each index
// in it, that field of every element ("Summary.Tasks[*].SimTime").
type Omit struct{ Path, Reason string }

// Diff names the first path at which got differs from want, with both
// values, or returns "" when they agree. Floats agree when their bits
// do, so −0 differs from +0 and a NaN agrees only with a NaN of the same
// payload; a nil list agrees with an empty one. An Omit without a
// reason, or whose path names no field, panics.
func Diff(got, want Outcome, omit ...Omit) string {
	d := differ{omit: map[string]bool{}}
	for _, o := range omit {
		if o.Reason == "" {
			panic("Diff: omitting " + o.Path + " without a reason")
		}
		d.omit[o.Path] = false
	}
	d.walk("", "", reflect.ValueOf(got), reflect.ValueOf(want))
	for path, seen := range d.omit {
		if !seen {
			panic("Diff: omitted path " + path + " names no field")
		}
	}
	return d.first
}

// differ walks two values of one type in field order, keeping the
// first difference, and marks each omitted path it passes. pat is the
// path with [*] for each index.
type differ struct {
	first string
	omit  map[string]bool
}

func (d *differ) walk(path, pat string, g, w reflect.Value) {
	for _, p := range [2]string{path, pat} {
		if _, ok := d.omit[p]; ok {
			d.omit[p] = true
			return
		}
	}
	same := true
	switch {
	case !g.IsValid() || !w.IsValid(): // an element or key only one side has
		same = g.IsValid() == w.IsValid()
	case g.Kind() == reflect.Pointer && (g.IsNil() || w.IsNil()):
		same = g.IsNil() == w.IsNil()
	case g.Kind() == reflect.Pointer:
		d.walk(path, pat, g.Elem(), w.Elem())
	case g.Kind() == reflect.Struct:
		for i := range g.NumField() {
			f := g.Type().Field(i).Name
			d.walk(strings.TrimPrefix(path+"."+f, "."), strings.TrimPrefix(pat+"."+f, "."), g.Field(i), w.Field(i))
		}
	case g.Kind() == reflect.Map:
		keys := append(g.MapKeys(), w.MapKeys()...)
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			d.walk(path+"."+k.String(), pat+"."+k.String(), g.MapIndex(k), w.MapIndex(k))
		}
	case g.Kind() == reflect.Slice || g.Kind() == reflect.Array:
		gf, _ := g.Interface().([]float64)
		wf, _ := w.Interface().([]float64)
		for i := range max(g.Len(), w.Len()) {
			if i < len(gf) && i < len(wf) && math.Float64bits(gf[i]) == math.Float64bits(wf[i]) && len(d.omit) == 0 {
				continue // the common case, without building a path
			}
			d.walk(path+"["+strconv.Itoa(i)+"]", pat+"[*]", at(g, i), at(w, i))
		}
	case g.CanFloat():
		same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
	default:
		same = g.Equal(w) // panics on a kind it cannot compare
	}
	if !same && d.first == "" {
		d.first = fmt.Sprintf("%s = %s, want %s", path, show(g), show(w))
	}
}

// at returns v's element i, or the zero Value past its end.
func at(v reflect.Value, i int) reflect.Value {
	if i < v.Len() {
		return v.Index(i)
	}
	return reflect.Value{}
}

// show renders a value for Diff: a float with its bits, a pointer that
// is not nil by its type, a missing value as "nothing".
func show(v reflect.Value) string {
	switch {
	case !v.IsValid():
		return "nothing"
	case v.CanFloat():
		return fmt.Sprintf("%v (%#x)", v.Float(), math.Float64bits(v.Float()))
	case v.Kind() == reflect.Pointer && !v.IsNil():
		return "a " + v.Type().String()
	}
	return fmt.Sprint(v)
}

// TestOutcomeDiff: Diff compares floats by their bits and names the
// first path that differs, a list's by index.
func TestOutcomeDiff(t *testing.T) {
	nan := math.NaN()
	base := func() Outcome {
		return Outcome{
			Data: [][]float64{{1, 2}, {0, nan, 3}}, Futures: []float64{nan},
			Stats: map[string]int64{"Copies": 2, "CopiedBytes[1]": 16},
			Trace: &prof.Trace{Spans: []prof.Span{{Task: "a", Start: 5}}},
		}
	}
	for _, c := range []struct {
		name string
		edit func(o *Outcome)
		want string // the path Diff must name, "" for none
	}{
		{"the same NaN in the same place", func(*Outcome) {}, ""},
		{"a nil list against an empty one", func(o *Outcome) { o.MemUsed = []int64{} }, ""},
		{"-0 against +0", func(o *Outcome) { o.Data[1][0] = math.Copysign(0, -1) }, "Data[1][0]"},
		{"another NaN payload", func(o *Outcome) { o.Futures[0] = math.Float64frombits(math.Float64bits(nan) ^ 1) }, "Futures[0]"},
		{"a longer list", func(o *Outcome) { o.Data[0] = append(o.Data[0], 4) }, "Data[0][2]"},
		{"the first of two differences", func(o *Outcome) { o.Data[1][2], o.Futures[0] = 4, 0 }, "Data[1][2]"},
		{"a counter", func(o *Outcome) { o.Stats["CopiedBytes[1]"] = 8 }, "Stats.CopiedBytes[1]"},
		{"a missing counter", func(o *Outcome) { delete(o.Stats, "Copies") }, "Stats.Copies"},
		{"a span", func(o *Outcome) { o.Trace.Spans[0].Start = 6 }, "Trace.Spans[0].Start"},
		{"no trace", func(o *Outcome) { o.Trace = nil }, "Trace"},
	} {
		got := base()
		c.edit(&got)
		diff := Diff(got, base())
		if name, _, _ := strings.Cut(diff, " = "); name != c.want {
			t.Errorf("%s: Diff = %q, want it to name %q", c.name, diff, c.want)
		}
	}

	negZero := base()
	negZero.Data[1][0] = math.Copysign(0, -1)
	if diff := Diff(negZero, base(), Omit{"Data", "the test's own reason"}); diff != "" {
		t.Errorf("an omitted field differs: %s", diff)
	}
	later := base()
	later.Trace.Spans[0].Start++
	if diff := Diff(later, base(), Omit{"Trace.Spans[*].Start", "the test's own reason"}); diff != "" {
		t.Errorf("a field omitted at every index differs: %s", diff)
	}
	for _, o := range []Omit{{"Data", ""}, {"Dat", "a path that names nothing"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Diff accepted %+v", o)
				}
			}()
			Diff(base(), base(), o)
		}()
	}
}
