package analysis

import (
	"cmp"
	"errors"
	"io"
	"slices"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// Exhibits are what the record-level figures draw: the exhibits an
// ExhibitPicker chose from the admitted records (Admits) of a run, and
// those exhibits' records, read again.
type Exhibits struct {
	// Cars are Figure 5's sample cars: the lowest ids among the cars
	// with more than 50 admitted records, then the lowest of the rest,
	// at most three.
	Cars []cdr.CarID
	// Cell and Day are Figure 8's cell-day, the one with the most
	// distinct cars starting a record there, the lower cell then the
	// lower day on a tie; the zero cell when nothing was admitted.
	Cell radio.CellKey
	Day  int
	// FirstCells are the first two distinct cells admitted, Figure 1's
	// cells when the load model has too few busy ones.
	FirstCells []radio.CellKey
	// Records are the admitted records of the sample cars, of Figure 8's
	// cell and of the extra cells the collect pass was given (Figure
	// 10's), in input order.
	Records []cdr.Record
	// Missing, when set, is why Figures 5 and 8 could not be drawn
	// (their input cannot be read twice); the report prints it in their
	// place.
	Missing string
}

// An ExhibitPicker chooses the record-level figures' exhibits from the
// records the engine reads, as it reads them (Add), keeping a count
// per car, a count of distinct cars per (cell, study day) and the first
// two cells — state in the fleet and the network, never in the
// records. Exhibits then draws the chosen exhibits' records from one
// more read of the input.
//
// A car's (cell, day) pairs are told apart on the car's latest study
// day only, so the counts are exact when each car's records come in
// non-decreasing start day, as every start-ordered input does. A car
// whose days go backwards marks the counts inexact, and Exhibits
// recounts them over one extra read before it draws.
type ExhibitPicker struct {
	period simtime.Period
	// carSlot holds car id's number plus one at index id, for ids below
	// denseCars; carIndex holds the others'.
	carSlot  []int32
	carIndex map[cdr.CarID]int32
	cars     []pickedCar
	// cellIndex numbers the cells in first-seen order; counts holds the
	// distinct cars of cell i's day d at i*days+d.
	cellIndex map[radio.CellKey]int32
	cells     []radio.CellKey
	counts    []int32
	first     []radio.CellKey
	// backwards is set once a car's study day went backwards.
	backwards bool
	// seen, in a recount, holds every (car number, counts index)
	// counted, so the counts are exact in any order.
	seen map[carAt]struct{}
}

type carAt struct {
	car int32
	at  int
}

// denseCars bounds the car ids numbered through a slice: at most 4 MB
// of it, for a fleet whose ids run that high.
const denseCars = 1 << 20

// pickedCar is one car's state: its admitted records, its latest study
// day and the cells it has been counted in on that day.
type pickedCar struct {
	id    cdr.CarID
	n     int32
	day   int32
	today []radio.CellKey
}

// NewExhibitPicker returns a picker for a study over period.
func NewExhibitPicker(period simtime.Period) *ExhibitPicker {
	return &ExhibitPicker{
		period:    period,
		carIndex:  make(map[cdr.CarID]int32),
		cellIndex: make(map[radio.CellKey]int32),
	}
}

// Add counts the records of recs that the study admits.
func (p *ExhibitPicker) Add(recs []cdr.Record) {
	days := p.period.Days()
	for i := range recs {
		r := &recs[i]
		day, ghost := admitDay(p.period, *r)
		if ghost || day < 0 {
			continue
		}
		ci := p.carOf(r.Car)
		c := &p.cars[ci]
		c.n++
		if len(p.first) < 2 && !slices.Contains(p.first, r.Cell) {
			p.first = append(p.first, r.Cell)
		}
		if p.seen != nil {
			k := carAt{ci, p.cellOf(r.Cell)*days + day}
			if _, dup := p.seen[k]; !dup {
				p.seen[k] = struct{}{}
				p.counts[k.at]++
			}
			continue
		}
		switch {
		case int32(day) > c.day:
			c.day, c.today = int32(day), c.today[:0]
		case int32(day) < c.day:
			p.backwards = true
			continue
		}
		if !slices.Contains(c.today, r.Cell) {
			c.today = append(c.today, r.Cell)
			p.counts[p.cellOf(r.Cell)*days+day]++
		}
	}
}

// carOf returns the car's number, numbering it when it is new. Ids
// below denseCars are looked up in a slice, the rest in a map.
func (p *ExhibitPicker) carOf(id cdr.CarID) int32 {
	if id < denseCars {
		if id >= cdr.CarID(len(p.carSlot)) {
			p.carSlot = append(p.carSlot, make([]int32, int(id)+1-len(p.carSlot))...)
		}
		if n := p.carSlot[id]; n > 0 {
			return n - 1
		}
		p.carSlot[id] = int32(len(p.cars)) + 1
	} else {
		if n, ok := p.carIndex[id]; ok {
			return n
		}
		p.carIndex[id] = int32(len(p.cars))
	}
	p.cars = append(p.cars, pickedCar{id: id, day: -1})
	return int32(len(p.cars) - 1)
}

// cellOf returns the cell's number, numbering it (and making room for
// its days' counts) when it is new.
func (p *ExhibitPicker) cellOf(cell radio.CellKey) int {
	i, ok := p.cellIndex[cell]
	if !ok {
		i = int32(len(p.cells))
		p.cellIndex[cell] = i
		p.cells = append(p.cells, cell)
		p.counts = append(p.counts, make([]int32, p.period.Days())...)
	}
	return int(i)
}

// pick returns the exhibits the counts choose, without records.
func (p *ExhibitPicker) pick() *Exhibits {
	x := &Exhibits{FirstCells: slices.Clone(p.first)}
	byRule := slices.Clone(p.cars)
	slices.SortFunc(byRule, func(a, b pickedCar) int {
		if busyA, busyB := a.n > 50, b.n > 50; busyA != busyB {
			if busyA {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, c := range byRule[:min(3, len(byRule))] {
		x.Cars = append(x.Cars, c.id)
	}
	days := p.period.Days()
	var best int32
	for i, cell := range p.cells {
		for day, n := range p.counts[i*days : (i+1)*days] {
			if n > best || n == best && n > 0 && (cell < x.Cell || cell == x.Cell && day < x.Day) {
				best, x.Cell, x.Day = n, cell, day
			}
		}
	}
	return x
}

// Exhibits draws the exhibits the picker chose. open starts one more
// read of the input the picker was shown, from its first record: the
// records of the sample cars, of Figure 8's cell and of cells (Figure
// 10's) are kept from it, so what is held is bounded by the exhibits,
// not by the input. When a car's days went backwards the picker first
// recounts Figure 8's cars over one read more. An error from open or a
// read ends it.
func (p *ExhibitPicker) Exhibits(open func() (cdr.Reader, error), cells []radio.CellKey) (*Exhibits, error) {
	if p.backwards {
		exact := NewExhibitPicker(p.period)
		exact.seen = make(map[carAt]struct{})
		if err := readPass(open, exact.Add); err != nil {
			return nil, err
		}
		p = exact
	}
	x := p.pick()
	err := readPass(open, func(recs []cdr.Record) {
		for _, r := range recs {
			if (r.Cell == x.Cell || slices.Contains(x.Cars, r.Car) || slices.Contains(cells, r.Cell)) && Admits(p.period, r) {
				x.Records = append(x.Records, r)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// readPass opens a read and hands fn its records, batch by batch, to
// the end.
func readPass(open func() (cdr.Reader, error), fn func([]cdr.Record)) error {
	r, err := open()
	if err != nil {
		return err
	}
	buf := make([]cdr.Record, engineDispatchBatch)
	for {
		n, err := cdr.ReadBatch(r, buf)
		fn(buf[:n])
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
