package sweep

import (
	"reflect"
	"slices"
	"testing"
)

// A spec class says how a Spec field reaches a sweep's cell keys and its
// checkpoint keys (the content addresses of the cells' runs).
type specClass int

const (
	// axis: a second value is a new grid coordinate, so the cell keys
	// change.
	axis specClass = iota
	// hashed: the cell keys stay and every run's address changes.
	hashed
	// replicas: the cell keys stay and each cell's addresses extend
	// those of the base spec, which a checkpoint therefore still serves.
	replicas
	// inert: cell keys and addresses stay, so a checkpoint serves the
	// same bytes.
	inert
	// singleValued: the field has one legal value; Cells refuses any
	// other.
	singleValued
)

// specRow classes one Spec field. set gives the field a second value on
// top of base (for a singleValued field, an illegal one). A hashed field
// that counts only under some condition names, in moot, a change to base
// under which it drops out of the addresses.
type specRow struct {
	class specClass
	set   func(*Spec)
	moot  func(*Spec)
}

// specCensusBase is every row's spec: one crashing cell, two seeds.
var specCensusBase = Spec{Ns: []int{512}, CrashProbs: []float64{0.1}, Seeds: 2, BaseSeed: 3}

// specKnobs is the census of Spec: every field, in exactly one class. A
// field added without a row fails TestSpecCensus by name.
var specKnobs = map[string]specRow{
	"Protocols":  {class: axis, set: func(s *Spec) { s.Protocols = []string{"consensus"} }},
	"Ns":         {class: axis, set: func(s *Spec) { s.Ns = []int{1024} }},
	"Epss":       {class: axis, set: func(s *Spec) { s.Epss = []float64{0.25} }},
	"CrashProbs": {class: axis, set: func(s *Spec) { s.CrashProbs = []float64{0.2} }},
	// crash_round counts only in crashing cells.
	"CrashRound": {class: hashed,
		set:  func(s *Spec) { s.CrashRound = 5 },
		moot: func(s *Spec) { s.CrashProbs = []float64{0} }},
	"Seeds":          {class: replicas, set: func(s *Spec) { s.Seeds = 3 }},
	"BaseSeed":       {class: hashed, set: func(s *Spec) { s.BaseSeed = 10 }},
	"Kernel":         {class: singleValued, set: func(s *Spec) { s.Kernel = "batched" }},
	"Schedule":       {class: singleValued, set: func(s *Spec) { s.Schedule = "counter" }},
	"DropProb":       {class: hashed, set: func(s *Spec) { s.DropProb = 0.05 }},
	"NoSelfMessages": {class: hashed, set: func(s *Spec) { s.NoSelfMessages = true }},
	"MaxRounds":      {class: hashed, set: func(s *Spec) { s.MaxRounds = 100 }},
	"Shards":         {class: inert, set: func(s *Spec) { s.Shards = 3 }},
}

// specKeys compiles s and returns its cell keys and, per cell, the
// content addresses of its runs.
func specKeys(t *testing.T, s Spec) (cells []string, addrs [][]string) {
	t.Helper()
	compiled, err := s.Cells()
	if err != nil {
		t.Fatalf("Cells(%+v): %v", s, err)
	}
	for _, c := range compiled {
		cells = append(cells, c.Key())
		var hs []string
		for _, r := range c.Requests {
			hs = append(hs, r.Hash())
		}
		addrs = append(addrs, hs)
	}
	return cells, addrs
}

// TestSpecCensus holds every Spec field to its class against the keys a
// sweep stores its work under: the cell keys of its grid and the content
// addresses its checkpoint is keyed by.
func TestSpecCensus(t *testing.T) {
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Spec]()) {
		fields[f.Name] = true
		row, ok := specKnobs[f.Name]
		if !ok {
			t.Errorf("Spec.%s has no row in the spec census: class it axis, hashed, replicas, inert or single-valued", f.Name)
			continue
		}
		base := specCensusBase
		alt := base
		row.set(&alt)
		if row.class == singleValued {
			if _, err := alt.Cells(); err == nil {
				t.Errorf("single-valued field %s accepted a second value", f.Name)
			}
			continue
		}
		baseCells, baseAddrs := specKeys(t, base)
		altCells, altAddrs := specKeys(t, alt)
		if row.class == axis {
			if slices.Equal(baseCells, altCells) {
				t.Errorf("axis field %s left the cell keys %v", f.Name, baseCells)
			}
			continue
		}
		if !slices.Equal(baseCells, altCells) {
			t.Errorf("%s changed the cell keys: %v, want %v", f.Name, altCells, baseCells)
			continue
		}
		for ci := range baseAddrs {
			b, a := baseAddrs[ci], altAddrs[ci]
			switch row.class {
			case hashed:
				for _, h := range b {
					if slices.Contains(a, h) {
						t.Errorf("hashed field %s: cell %s keeps the address %s", f.Name, baseCells[ci], h)
					}
				}
			case replicas:
				if len(a) <= len(b) || !slices.Equal(a[:len(b)], b) {
					t.Errorf("replicas field %s: cell %s addresses %v do not extend %v", f.Name, baseCells[ci], a, b)
				}
			case inert:
				if !slices.Equal(a, b) {
					t.Errorf("inert field %s changed cell %s's addresses", f.Name, baseCells[ci])
				}
			}
		}
		if row.moot != nil {
			row.moot(&base)
			row.moot(&alt)
			_, b := specKeys(t, base)
			_, a := specKeys(t, alt)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("hashed field %s: still counts where its row says it drops out", f.Name)
			}
		}
	}
	for name := range specKnobs { //breathe:order-ok membership checks only
		if !fields[name] {
			t.Errorf("the spec census has a row for %s, which Spec no longer has", name)
		}
	}
}
