// Package predict builds per-car appearance prediction on top of the
// measurement pipeline — the capability the paper's discussion calls
// for ("possible per-car prediction models for efficient content
// delivery", §4.7) and its introduction previews ("cars can be
// clustered according to predictability in their behavior", §1).
//
// The model is deliberately simple and interpretable, in the spirit of
// the paper's 24×7 matrices: a car's history is folded into an
// hour-of-week frequency matrix; hours whose appearance frequency
// clears a threshold are predicted active. Predictability is the
// week-over-week consistency of that matrix, and backtesting splits
// the study into a training prefix and evaluation suffix.
package predict

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/simtime"
)

// HoursPerWeek is the prediction resolution: one slot per hour of the
// week, matching the paper's matrices.
const HoursPerWeek = 24 * 7

// Profile is a car's learned weekly appearance profile.
type Profile struct {
	Car cdr.CarID
	// Weeks is the number of training weeks observed.
	Weeks int
	// Freq[h] is the fraction of training weeks in which the car was
	// on the network during hour-of-week h.
	Freq [HoursPerWeek]float64
	// Predictability in [0, 1]: 1 means the car appears in exactly the
	// same hours every week, 0 means appearances are spread uniformly
	// at random. Defined as 1 - H(active hours)/H(uniform), where H is
	// computed over the frequency profile restricted to hours the car
	// ever used.
	Predictability float64
}

// ActiveHours returns the hour-of-week slots whose frequency is at
// least threshold, the car's predicted weekly appearance set.
func (p *Profile) ActiveHours(threshold float64) []int {
	var out []int
	for h, f := range p.Freq {
		if f >= threshold {
			out = append(out, h)
		}
	}
	return out
}

// Predict reports whether the car is expected on the network during
// the given hour-of-week at the given frequency threshold.
func (p *Profile) Predict(hourOfWeek int, threshold float64) bool {
	if hourOfWeek < 0 || hourOfWeek >= HoursPerWeek {
		panic(fmt.Sprintf("predict: hour-of-week %d out of range", hourOfWeek))
	}
	return p.Freq[hourOfWeek] >= threshold
}

// hourSetsByWeek folds one car's sessions into per-week sets of active
// hour-of-week slots. Records must belong to a single car.
func hourSetsByWeek(records []cdr.Record, period simtime.Period, tzOffset int, fromWeek, toWeek int) []map[int]struct{} {
	nWeeks := toWeek - fromWeek
	sets := make([]map[int]struct{}, nWeeks)
	for i := range sets {
		sets[i] = make(map[int]struct{})
	}
	sessions, err := clean.Sessions(cdr.NewSliceReader(records), clean.AggregateGap)
	if err != nil {
		return sets // slice reader cannot fail
	}
	for _, s := range sessions {
		start, end := time.Unix(0, s.Start).UTC(), time.Unix(0, s.End).UTC()
		if end.Sub(start) > 7*24*time.Hour {
			end = start.Add(7 * 24 * time.Hour)
		}
		for t := start.Truncate(time.Hour); t.Before(end); t = t.Add(time.Hour) {
			day := period.DayIndex(t)
			if day < 0 {
				continue
			}
			week := day / 7
			if week < fromWeek || week >= toWeek {
				continue
			}
			sets[week-fromWeek][simtime.HourOfWeek(t, tzOffset)] = struct{}{}
		}
	}
	return sets
}

// Learn builds a car's profile from its records restricted to study
// weeks [0, trainWeeks). Records must belong to a single car and be
// ghost-free. It panics when trainWeeks does not fit in the period.
func Learn(records []cdr.Record, period simtime.Period, tzOffset int, trainWeeks int) Profile {
	if trainWeeks < 1 || trainWeeks*7 > period.Days() {
		panic(fmt.Sprintf("predict: trainWeeks %d outside period of %d days", trainWeeks, period.Days()))
	}
	p := Profile{Weeks: trainWeeks}
	if len(records) > 0 {
		p.Car = records[0].Car
	}
	sets := hourSetsByWeek(records, period, tzOffset, 0, trainWeeks)
	for _, set := range sets {
		for h := range set {
			p.Freq[h] += 1 / float64(trainWeeks)
		}
	}
	p.Predictability = predictability(p.Freq[:])
	return p
}

// predictability maps a frequency profile to [0, 1]. Hours the car
// never used are ignored; among used hours, frequencies near 0.5 are
// maximally uncertain and frequencies near 0 or 1 are maximally
// certain. The score is 1 - mean binary entropy.
func predictability(freq []float64) float64 {
	var hsum float64
	n := 0
	for _, f := range freq {
		if f <= 0 {
			continue
		}
		n++
		hsum += binaryEntropy(f)
	}
	if n == 0 {
		return 0
	}
	return 1 - hsum/float64(n)
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Outcome is a backtest confusion matrix over (car, hour-of-week,
// evaluation-week) triples.
type Outcome struct {
	TruePositive  int64
	FalsePositive int64
	FalseNegative int64
	TrueNegative  int64
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted.
func (o Outcome) Precision() float64 {
	d := o.TruePositive + o.FalsePositive
	if d == 0 {
		return 0
	}
	return float64(o.TruePositive) / float64(d)
}

// Recall returns TP/(TP+FN), or 0 when nothing was active.
func (o Outcome) Recall() float64 {
	d := o.TruePositive + o.FalseNegative
	if d == 0 {
		return 0
	}
	return float64(o.TruePositive) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (o Outcome) F1() float64 {
	p, r := o.Precision(), o.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Backtest learns a profile on weeks [0, trainWeeks) and evaluates
// hourly presence prediction on weeks [trainWeeks, trainWeeks+evalWeeks),
// using the given frequency threshold. Records must belong to a single
// car. It panics when the window does not fit the period.
func Backtest(records []cdr.Record, period simtime.Period, tzOffset int, trainWeeks, evalWeeks int, threshold float64) Outcome {
	if evalWeeks < 1 || (trainWeeks+evalWeeks)*7 > period.Days() {
		panic(fmt.Sprintf("predict: eval window %d+%d weeks outside period of %d days",
			trainWeeks, evalWeeks, period.Days()))
	}
	profile := Learn(records, period, tzOffset, trainWeeks)
	actualSets := hourSetsByWeek(records, period, tzOffset, trainWeeks, trainWeeks+evalWeeks)

	var o Outcome
	for _, actual := range actualSets {
		for h := 0; h < HoursPerWeek; h++ {
			predicted := profile.Predict(h, threshold)
			_, active := actual[h]
			switch {
			case predicted && active:
				o.TruePositive++
			case predicted && !active:
				o.FalsePositive++
			case !predicted && active:
				o.FalseNegative++
			default:
				o.TrueNegative++
			}
		}
	}
	return o
}

// FleetResult is a population-level backtest summary.
type FleetResult struct {
	Cars    int
	Overall Outcome
	// ByPredictability holds per-quartile outcomes: cars are ranked by
	// profile predictability and split into four equal groups, lowest
	// quartile first. The paper's premise — predictable cars enable
	// intelligent management — shows up as monotonically increasing F1.
	ByPredictability [4]Outcome
	// MeanPredictability is the fleet average score.
	MeanPredictability float64
}

// BacktestFleet runs Backtest for every car in a (car-grouped or
// globally sorted) stream and aggregates.
func BacktestFleet(records []cdr.Record, period simtime.Period, tzOffset int, trainWeeks, evalWeeks int, threshold float64) FleetResult {
	byCar := make(map[cdr.CarID][]cdr.Record)
	for _, r := range records {
		byCar[r.Car] = append(byCar[r.Car], r)
	}
	type carScore struct {
		car     cdr.CarID
		score   float64
		outcome Outcome
	}
	scored := make([]carScore, 0, len(byCar))
	var res FleetResult
	for car, recs := range byCar {
		profile := Learn(recs, period, tzOffset, trainWeeks)
		out := Backtest(recs, period, tzOffset, trainWeeks, evalWeeks, threshold)
		res.Overall.TruePositive += out.TruePositive
		res.Overall.FalsePositive += out.FalsePositive
		res.Overall.FalseNegative += out.FalseNegative
		res.Overall.TrueNegative += out.TrueNegative
		res.MeanPredictability += profile.Predictability
		scored = append(scored, carScore{car, profile.Predictability, out})
	}
	res.Cars = len(scored)
	if res.Cars == 0 {
		return res
	}
	res.MeanPredictability /= float64(res.Cars)
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score < scored[j].score
		}
		return scored[i].car < scored[j].car
	})
	for i, cs := range scored {
		q := i * 4 / len(scored)
		res.ByPredictability[q].TruePositive += cs.outcome.TruePositive
		res.ByPredictability[q].FalsePositive += cs.outcome.FalsePositive
		res.ByPredictability[q].FalseNegative += cs.outcome.FalseNegative
		res.ByPredictability[q].TrueNegative += cs.outcome.TrueNegative
	}
	return res
}
