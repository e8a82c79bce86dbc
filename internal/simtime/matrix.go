package simtime

import (
	"encoding/json"
	"fmt"
)

// WeekMatrix is a 24×7 hour-of-week accumulation matrix, the encoding
// the paper uses for commute peaks, network peaks, weekend windows
// (Fig 4) and per-car usage patterns (Fig 5). Rows are hours of the day
// (0–23), columns are days of the week starting Monday. The zero value
// is an empty matrix ready to use.
type WeekMatrix struct {
	cells [HoursPerDay * 7]float64
}

// At returns the accumulated value for the given hour (0–23) and
// day-of-week column (0=Monday … 6=Sunday).
func (m *WeekMatrix) At(hour, day int) float64 {
	return m.cells[m.index(hour, day)]
}

// Add accumulates v into the cell for the given hour and day column.
func (m *WeekMatrix) Add(hour, day int, v float64) {
	m.cells[m.index(hour, day)] += v
}

// Set overwrites the cell for the given hour and day column.
func (m *WeekMatrix) Set(hour, day int, v float64) {
	m.cells[m.index(hour, day)] = v
}

// AddHourOfWeek accumulates v into the cell addressed by an hour-of-week
// index in [0, 168) as produced by HourOfWeek.
func (m *WeekMatrix) AddHourOfWeek(how int, v float64) {
	if how < 0 || how >= HoursPerDay*7 {
		panic(fmt.Sprintf("simtime: hour-of-week %d out of range", how))
	}
	day := how / 24
	hour := how % 24
	m.Add(hour, day, v)
}

func (m *WeekMatrix) index(hour, day int) int {
	if hour < 0 || hour >= HoursPerDay || day < 0 || day >= 7 {
		panic(fmt.Sprintf("simtime: matrix cell (%d,%d) out of range", hour, day))
	}
	return hour*7 + day
}

// MarshalJSON renders the matrix as 24 hour-rows of 7 day columns
// (Monday first), so reports carrying matrices survive a JSON round
// trip instead of collapsing to an empty object.
func (m WeekMatrix) MarshalJSON() ([]byte, error) {
	rows := make([][7]float64, HoursPerDay)
	for hour := 0; hour < HoursPerDay; hour++ {
		for day := 0; day < 7; day++ {
			rows[hour][day] = m.At(hour, day)
		}
	}
	return json.Marshal(rows)
}

// UnmarshalJSON restores a matrix marshaled by MarshalJSON.
func (m *WeekMatrix) UnmarshalJSON(data []byte) error {
	var rows [][7]float64
	if err := json.Unmarshal(data, &rows); err != nil {
		return err
	}
	if len(rows) != HoursPerDay {
		return fmt.Errorf("simtime: week matrix needs %d hour rows, got %d", HoursPerDay, len(rows))
	}
	var out WeekMatrix
	for hour := range rows {
		for day := 0; day < 7; day++ {
			out.Set(hour, day, rows[hour][day])
		}
	}
	*m = out
	return nil
}

// Max returns the largest cell value, or 0 for an empty matrix.
func (m *WeekMatrix) Max() float64 {
	var max float64
	for _, v := range m.cells {
		if v > max {
			max = v
		}
	}
	return max
}

// Sum returns the total of all cells.
func (m *WeekMatrix) Sum() float64 {
	var s float64
	for _, v := range m.cells {
		s += v
	}
	return s
}

// Merge adds every cell of other into m.
func (m *WeekMatrix) Merge(other *WeekMatrix) {
	for i := range m.cells {
		m.cells[i] += other.cells[i]
	}
}

// ActiveCells returns the number of cells with a value strictly above
// threshold. The paper's "white box" (no connections that hour) test is
// ActiveCells with threshold 0 against the total 168.
func (m *WeekMatrix) ActiveCells(threshold float64) int {
	n := 0
	for _, v := range m.cells {
		if v > threshold {
			n++
		}
	}
	return n
}

// DayVector is an accumulation over the BinsPerDay 15-minute bins of a
// single day, used for per-cell daily load and concurrency curves.
type DayVector [BinsPerDay]float64

// WeekVector is an accumulation over the BinsPerWeek 15-minute bins of
// a week (Monday-start).
type WeekVector [BinsPerWeek]float64

// Max returns the largest bin value.
func (w *WeekVector) Max() float64 {
	var max float64
	for _, v := range w {
		if v > max {
			max = v
		}
	}
	return max
}
