package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"time"
)

// The study every input covers: cargen's default start date, 14 days,
// so the 24h / 7d / 14d windows the serve workload queries all exist.
const (
	studyStart = "2017-01-02"
	studyDays  = 14
)

// sizeSpec fixes how much work a run does. Fleets shrink to fit the
// driver's time cap; repetitions never drop below MinReps.
type sizeSpec struct {
	MainCars  int // fleet behind batch, checkpoint and shards
	ServeCars int // fleet behind serve
	MinReps   int // timed repetitions every median rests on, at least
	Hits      int // cache-hit requests per window per tick
}

var sizes = map[string]sizeSpec{
	"std":   {MainCars: 1600, ServeCars: 400, MinReps: 5, Hits: 50},
	"smoke": {MainCars: 120, ServeCars: 60, MinReps: 1, Hits: 5},
}

// faultShare is the share of CSV rows the injector corrupts.
const faultShare = 0.005

// feedHours is how many hours at the end of the study the serve
// workload feeds one at a time; the preload is everything before them.
// Six ticks, three misses each, keep a repetition under four seconds
// so that five fit in a run.
const feedHours = 6

// env is where a run lives: the repository it measures, its scratch
// directory under bench/out, and the binaries setup built there.
type env struct {
	root string // repository root
	out  string // bench/out
	work string // bench/out/work-<workload>, wiped by every setup
	seed uint64
	size sizeSpec
}

func (e *env) bin(name string) string { return filepath.Join(e.work, "bin", name) }
func (e *env) in(name string) string  { return filepath.Join(e.work, "in", name) }

// InputFile identifies one generated input: two results are comparable
// only when these agree.
type InputFile struct {
	Name    string `json:"name"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	SHA256  string `json:"sha256"`
}

// inputs is what setup generates and derives: the main fleet's files
// for batch, checkpoint and shards, the serve fleet's for serve, both
// for a traced run. A workload sets up only the fleet it runs on
// because the driver's time cap is better spent on repetitions.
type inputs struct {
	Files    []InputFile
	Main     InputFile // clean binary CDRs of the main fleet
	Faulty   InputFile // the same records as CSV, with seeded faults
	Injected int       // rows the injector corrupted, exactly
	Serve    InputFile // clean binary CDRs of the serve fleet
	Pre      InputFile // serve records before the last feedHours hours, binary
	Hours    [][]byte  // CSV rows of each non-empty hour after that, in order
	HourRecs []int64   // records in each of those hours
	GenRate  float64   // cargen records per second on the main fleet
}

var wroteRE = regexp.MustCompile(`wrote (\d+) records`)

// setupOnce builds the binaries and generates and derives the inputs
// of the fleets asked for under e.work, from nothing.
func setupOnce(e *env, mainFleet, serveFleet bool) (*inputs, error) {
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	for _, d := range []string{"bin", "in"} {
		if err := os.MkdirAll(filepath.Join(e.work, d), 0o755); err != nil {
			return nil, err
		}
	}
	if _, err := run(e.root, "go", "build", "-o", filepath.Join(e.work, "bin")+string(filepath.Separator),
		"./cmd/cargen", "./cmd/caranalyze", "./cmd/cardrive", "./cmd/carqueryd"); err != nil {
		return nil, fmt.Errorf("build binaries: %w", err)
	}

	in := &inputs{}
	if mainFleet {
		if err := genMain(e, in); err != nil {
			return nil, err
		}
	}
	if serveFleet {
		if err := genServe(e, in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// cargen generates one fleet's clean binary CDR file and reports how
// long that took and how many records cargen says it wrote.
func cargen(e *env, name string, cars int) (time.Duration, int64, error) {
	res, err := run(e.work, e.bin("cargen"), "-cars", strconv.Itoa(cars), "-days", strconv.Itoa(studyDays),
		"-start", studyStart, "-seed", strconv.FormatUint(e.seed, 10), "-out", e.in(name))
	if err != nil {
		return 0, 0, err
	}
	m := wroteRE.FindSubmatch(res.Stderr)
	if m == nil {
		return 0, 0, fmt.Errorf("cargen did not say how many records it wrote: %s", tail(res.Stderr, 120))
	}
	wrote, _ := strconv.ParseInt(string(m[1]), 10, 64) // the pattern admits digits only
	return res.Wall, wrote, nil
}

// genMain generates the main fleet, then one pass over the file
// renders it as CSV with the seeded faults.
func genMain(e *env, in *inputs) error {
	genWall, wrote, err := cargen(e, "main.cdr", e.size.MainCars)
	if err != nil {
		return err
	}
	faulty, err := createInput(e.in("faulty.csv"), "faulty.csv")
	if err != nil {
		return err
	}
	defer faulty.f.Close() // a second close after a good one is harmless
	inj := newInjector(e.seed)
	var row []byte
	if err := faulty.write([]byte(csvHeader), 0); err != nil {
		return err
	}
	if in.Main, err = scanCDR(e.in("main.cdr"), "main.cdr", func(r rec) error {
		row = inj.row(row[:0], r)
		return faulty.write(row, 1)
	}); err != nil {
		return err
	}
	if in.Main.Records != wrote {
		return fmt.Errorf("cargen says it wrote %d records but main.cdr holds %d", wrote, in.Main.Records)
	}
	if in.Faulty, err = faulty.close(); err != nil {
		return err
	}
	in.Injected = inj.injected[0] + inj.injected[1] + inj.injected[2]
	in.GenRate = float64(in.Main.Records) / genWall.Seconds()
	in.Files = append(in.Files, in.Main, in.Faulty)
	return nil
}

// genServe generates the serve fleet, then one pass splits it into the
// preload (binary) and the last feedHours hours' hourly CSV slices.
func genServe(e *env, in *inputs) error {
	if _, _, err := cargen(e, "serve.cdr", e.size.ServeCars); err != nil {
		return err
	}
	pre, err := createInput(e.in("pre.cdr"), "pre.cdr")
	if err != nil {
		return err
	}
	defer pre.f.Close()
	if err := pre.write([]byte(cdrMagic), 0); err != nil {
		return err
	}
	t0, err := time.Parse("2006-01-02", studyStart)
	if err != nil {
		return err
	}
	feedStart := uint64(t0.Unix()) + studyDays*86400 - feedHours*3600
	var hours [feedHours][]byte
	var hourRecs [feedHours]int64
	var prev uint64
	var row []byte
	if in.Serve, err = scanCDR(e.in("serve.cdr"), "serve.cdr", func(r rec) error {
		if r.start < prev {
			return errors.New("serve.cdr is not ordered by start time")
		}
		prev = r.start
		h := feedHour(r, feedStart)
		if h < 0 {
			return pre.write(encodeRec(row[:0], r), 1)
		}
		hours[h] = appendCSVRow(hours[h], r)
		hourRecs[h]++
		return nil
	}); err != nil {
		return err
	}
	if in.Pre, err = pre.close(); err != nil {
		return err
	}
	for h, rows := range hours {
		if len(rows) == 0 {
			continue // the live bucket only advances on a record
		}
		in.Hours = append(in.Hours, rows)
		in.HourRecs = append(in.HourRecs, hourRecs[h])
	}
	if len(in.Hours) < 5 {
		return fmt.Errorf("the serve fleet has records in only %d of its last %d hours; need 5 ticks", len(in.Hours), feedHours)
	}
	in.Files = append(in.Files, in.Serve, in.Pre)
	return nil
}

// setup runs setupOnce reps times and keeps the last one's outputs;
// setup_s is the median, which leaves out the one cold build a fresh
// checkout pays.
func setup(e *env, reps int, mainFleet, serveFleet bool) (*inputs, []float64, error) {
	var in *inputs
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if in, err = setupOnce(e, mainFleet, serveFleet); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return in, secs, nil
}

// Setup streams every file it reads and writes. carbench must stay
// small: a child started from a Go program begins life sharing its
// parent's address space, and Linux folds the parent's peak RSS into
// the child's ru_maxrss when the child execs — a parent that once held
// a whole input in memory would become every child's peak_rss_mb.

// The binary CDR format, restated here so that the end-to-end half
// needs nothing from the repository's packages: an 8-byte magic, then
// 28-byte little-endian records of car, cell, start (Unix seconds) and
// duration (seconds).
const (
	cdrMagic = "CCARCDR1"
	recSize  = 28
)

type rec struct {
	car, cell, start uint64
	dur              uint32
}

// scanCDR streams a binary CDR file through each, and counts and
// digests it on the way.
func scanCDR(path, name string, each func(rec) error) (InputFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return InputFile{}, err
	}
	defer f.Close()
	h := sha256.New()
	br := bufio.NewReaderSize(io.TeeReader(f, h), 1<<16)
	var buf [recSize]byte
	if _, err := io.ReadFull(br, buf[:len(cdrMagic)]); err != nil || string(buf[:len(cdrMagic)]) != cdrMagic {
		return InputFile{}, fmt.Errorf("%s is not a binary CDR file", path)
	}
	in := InputFile{Name: name, Bytes: int64(len(cdrMagic))}
	for {
		if _, err := io.ReadFull(br, buf[:]); err == io.EOF {
			break
		} else if err != nil {
			return InputFile{}, fmt.Errorf("%s: record %d: %w", path, in.Records, err)
		}
		r := rec{
			car:   binary.LittleEndian.Uint64(buf[0:]),
			cell:  binary.LittleEndian.Uint64(buf[8:]),
			start: binary.LittleEndian.Uint64(buf[16:]),
			dur:   binary.LittleEndian.Uint32(buf[24:]),
		}
		if err := each(r); err != nil {
			return InputFile{}, err
		}
		in.Records++
		in.Bytes += recSize
	}
	in.SHA256 = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

func encodeRec(b []byte, r rec) []byte {
	b = binary.LittleEndian.AppendUint64(b, r.car)
	b = binary.LittleEndian.AppendUint64(b, r.cell)
	b = binary.LittleEndian.AppendUint64(b, r.start)
	return binary.LittleEndian.AppendUint32(b, r.dur)
}

// inputWriter writes a derived input, counting and digesting it.
type inputWriter struct {
	f  *os.File
	w  *bufio.Writer
	h  hash.Hash
	in InputFile
}

func createInput(path, name string) (*inputWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	return &inputWriter{f: f, w: bufio.NewWriterSize(io.MultiWriter(f, h), 1<<16), h: h, in: InputFile{Name: name}}, nil
}

// write appends b, which holds the given number of records.
func (iw *inputWriter) write(b []byte, records int64) error {
	iw.in.Records += records
	iw.in.Bytes += int64(len(b))
	_, err := iw.w.Write(b)
	return err
}

func (iw *inputWriter) close() (InputFile, error) {
	if err := iw.w.Flush(); err != nil {
		return InputFile{}, err
	}
	if err := iw.f.Close(); err != nil {
		return InputFile{}, err
	}
	iw.in.SHA256 = hex.EncodeToString(iw.h.Sum(nil))
	return iw.in, nil
}

const csvHeader = "car,cell,start_unix,duration_s\n"

func appendCSVRow(b []byte, r rec) []byte {
	b = strconv.AppendUint(b, r.car, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, r.cell, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, r.start, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(r.dur), 10)
	return append(b, '\n')
}

// injector renders records as CSV rows and corrupts about faultShare
// of them, cycling through the three faults a dirty feed shows: a junk
// field, a wrong column count, and a start far outside the study. The
// rows chosen depend on the seed alone. injected counts the rows
// corrupted per kind; each must end up quarantined, none more.
type injector struct {
	rng      *rand.Rand
	injected [3]int
}

func newInjector(seed uint64) *injector {
	return &injector{rng: rand.New(rand.NewPCG(seed, 0xfa17))}
}

// row appends r's CSV row to b, corrupted when the draw says so.
func (inj *injector) row(b []byte, r rec) []byte {
	if inj.rng.Float64() >= faultShare {
		return appendCSVRow(b, r)
	}
	kind := (inj.injected[0] + inj.injected[1] + inj.injected[2]) % 3
	inj.injected[kind]++
	switch kind {
	case 0:
		row := appendCSVRow(nil, r)
		return append(b, slices.Insert(row, bytes.IndexByte(row, ',')+1, 'x')...)
	case 1:
		row := appendCSVRow(nil, r)
		return append(append(b, row[:bytes.LastIndexByte(row, ',')]...), '\n')
	default:
		r.start += 20 * 365 * 86400
		return appendCSVRow(b, r)
	}
}

// feedHour places a record of the serve stream: -1 for the preload
// (everything before feedStart), else the hour it is fed in, a record
// starting after the study ends joining the last.
func feedHour(r rec, feedStart uint64) int {
	if r.start < feedStart {
		return -1
	}
	return int(min((r.start-feedStart)/3600, feedHours-1))
}
