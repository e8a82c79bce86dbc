package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serveWindows are the rolling windows the daemon serves, shortest
// first; the last spans the whole study.
var serveWindows = []string{"24h", "7d", "14d"}

// server is one running carqueryd and the single keep-alive client
// that talks to it: one caller that waits for each reply before it
// sends the next request (a closed loop of one).
type server struct {
	*daemon
	o      *ops
	client *http.Client
}

// get fetches a path and counts the request; anything but a 200 is a
// failed operation.
func (s *server) get(path string) (body []byte, took time.Duration, err error) {
	t0 := time.Now()
	resp, err := s.client.Get("http://" + s.addr + path)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
		}
	}
	took = time.Since(t0)
	s.o.attempt(err)
	return body, took, err
}

// waitRecords polls /stats until the daemon has ingested n records.
func (s *server) waitRecords(n int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		body, _, err := s.get("/stats")
		if err != nil {
			return err
		}
		var st struct {
			Records int64 `json:"records"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("/stats: %w", err)
		}
		if st.Records == n {
			return nil
		}
		if st.Records > n || time.Now().After(deadline) {
			return fmt.Errorf("/stats.records is %d, waiting for %d", st.Records, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads the un-labelled series of /metrics by name. Callers
// look timings up by name and treat a missing one as absent, so a
// renamed metric costs a per-layer line, not the run.
func (s *server) scrape() (map[string]float64, error) {
	body, _, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
				series[name] = v
			}
		}
	}
	return series, nil
}

// runServe drives carqueryd through its steady state and its edges.
// One repetition is:
//
// A: a fresh daemon drains the whole binary file (rec_per_s), once
// before B and once after C.
//
// B: a daemon preloaded with everything but the study's last
// feedHours hours is fed those one hour at a time through a FIFO. Each
// hour advances the live bucket, which invalidates every cached
// (endpoint, window); the first summary request on each window is then
// a miss that restores and folds every covered hourly bucket
// (report_ms is the one on the full window), and the repeats after it
// are cache hits. peak_rss_mb is this daemon's.
//
// C: that daemon is sent SIGTERM and restarted with the flags it had,
// warm from its last cut; it must serve the same full report.
func runServe(e *env, in *inputs, seconds float64, traceDir string, o *ops) (samples, error) {
	s := samples{}
	client := &http.Client{Timeout: 60 * time.Second}
	flags := cat([]string{"-listen", "127.0.0.1:0", "-windows", strings.Join(serveWindows, ","),
		"-snapshot-every", strconv.FormatInt(max(in.Serve.Records/4, 1), 10)}, studyArgs(e), traceArg(traceDir, "carqueryd"))
	launch := func(snapDir string, inputs ...string) (*server, error) {
		d, err := startDaemon(e.bin("carqueryd"), cat(flags, []string{"-snapshots", snapDir}, inputs)...)
		o.attempt(err)
		if err != nil {
			return nil, err
		}
		return &server{daemon: d, o: o, client: client}, nil
	}
	// drained waits until the daemon has taken in all of its inputs
	// and reports how long that took from its start.
	drained := func(srv *server) (time.Duration, error) {
		ev, err := srv.waitFor("drained", 60*time.Second)
		if err != nil {
			srv.kill()
			return 0, err
		}
		return ev.at.Sub(srv.start), nil
	}
	stop := func(srv *server) (childRun, error) {
		res, err := srv.stop()
		o.attempt(err)
		return res, err
	}

	n := float64(in.Serve.Records)
	feed := filepath.Join(e.work, "feed.csv")
	snapA, snapB := filepath.Join(e.work, "snap-a"), filepath.Join(e.work, "snap-b")
	fed := append([]byte(csvHeader), bytes.Join(in.Hours, nil)...)
	// A. It runs before and after the rest of a repetition: it is a
	// tenth of one, and twice the samples steady its median.
	coldIngest := func(rep samples) error {
		if err := os.RemoveAll(snapA); err != nil {
			return err
		}
		a, err := launch(snapA, e.in("serve.cdr"))
		if err != nil {
			return err
		}
		took, err := drained(a)
		if err != nil {
			return err
		}
		res, err := stop(a)
		if err != nil {
			return err
		}
		rep.add("rec_per_s", n/took.Seconds())
		rep.add("proc.cpu_s", res.CPU.Seconds())
		return nil
	}
	b := &phaseB{in: in, hits: e.size.Hits, traced: traceDir != "", first: map[string][sha256.Size]byte{}}
	err := repeat(seconds, e.size.MinReps, func(i int) error {
		for _, stale := range []string{feed, snapB} {
			if err := os.RemoveAll(stale); err != nil {
				return err
			}
		}
		rep := samples{}
		if err := coldIngest(rep); err != nil {
			return err
		}

		// B. The daemon reads the FIFO as one more input file. Opening
		// it read-write never blocks, whether or not the daemon has
		// reached it yet; closing it is the end of input.
		if err := syscall.Mkfifo(feed, 0o600); err != nil {
			return fmt.Errorf("mkfifo: %w", err)
		}
		srv, err := launch(snapB, e.in("pre.cdr"), feed)
		if err != nil {
			return err
		}
		pipe, err := os.OpenFile(feed, os.O_RDWR, 0)
		if err != nil {
			srv.kill()
			return err
		}
		full, err := b.run(srv, pipe, rep)
		pipe.Close()
		if err != nil {
			srv.kill()
			return err
		}
		if _, err := drained(srv); err != nil {
			return err
		}
		resB, err := stop(srv)
		if err != nil {
			return err
		}
		rep.add("peak_rss_mb", resB.RSSMB)

		// C. feed.csv becomes a plain file holding what went through
		// the FIFO, so "the same flags" replay the same stream.
		if err := os.Remove(feed); err != nil {
			return err
		}
		if err := os.WriteFile(feed, fed, 0o644); err != nil {
			return err
		}
		c, err := launch(snapB, e.in("pre.cdr"), feed)
		if err != nil {
			return err
		}
		restart, err := drained(c)
		if err != nil {
			return err
		}
		after, _, gerr := c.get("/report/full?window=14d")
		if _, err := stop(c); err != nil {
			return err
		}
		if gerr != nil {
			return gerr
		}
		o.check("serve.full_report_survives_restart", bytes.Equal(after, full),
			"/report/full?window=14d differs after restart (%d vs %d bytes)", len(after), len(full))
		rep.add("serve.restart_s", restart.Seconds())
		if err := coldIngest(rep); err != nil {
			return err
		}
		if i >= 0 {
			s.merge(rep)
		}
		return nil
	})
	if hits := s[hitsUS]; len(hits) > 0 {
		s.add("query.http.hit_p99_us", percentile(hits, 99))
	}
	return s, err
}

// hitsUS holds every timed hit's latency, for the p99 over the whole
// run; it is no metric's name, so it is not reported itself.
const hitsUS = "every hit, us"

// phaseB is what every repetition's hourly feed shares: the inputs,
// and the digest of each tick's replies in the first repetition, which
// the later ones must repeat.
type phaseB struct {
	in     *inputs
	hits   int  // cache-hit requests per window per tick
	traced bool // also scrape /metrics around each miss
	first  map[string][sha256.Size]byte
}

// run feeds the last hours one by one and times the misses and hits
// after each tick; a latency's sample for the repetition is its median
// over the ticks. It returns the full-window report as served once
// every hour is in.
func (b *phaseB) run(srv *server, pipe io.Writer, s samples) (full []byte, err error) {
	ticks := samples{}
	if _, err := io.WriteString(pipe, csvHeader); err != nil {
		return nil, err
	}
	fed := b.in.Pre.Records
	if err := srv.waitRecords(fed); err != nil {
		return nil, err
	}
	const foldSum = "cellcars_query_fold_seconds_sum"
	for tick, rows := range b.in.Hours {
		if _, err := pipe.Write(rows); err != nil {
			return nil, err
		}
		fed += b.in.HourRecs[tick]
		if err := srv.waitRecords(fed); err != nil {
			return nil, err
		}
		for _, w := range serveWindows {
			path := "/report/summary?window=" + w
			var before map[string]float64
			if b.traced {
				if before, err = srv.scrape(); err != nil {
					return nil, err
				}
			}
			miss, took, err := srv.get(path)
			if err != nil {
				return nil, err
			}
			name, label := "serve.miss_"+w+"_ms", w
			if w == serveWindows[len(serveWindows)-1] {
				name, label = "report_ms", "full"
				var sum struct {
					Records int64 `json:"records"`
					Ghosts  int64 `json:"ghosts_dropped"`
				}
				err := json.Unmarshal(miss, &sum)
				srv.o.check("serve.summary_counts_every_record_fed", err == nil && sum.Records+sum.Ghosts == fed,
					"tick %d: summary.records %d + ghosts %d, fed %d (%v)", tick, sum.Records, sum.Ghosts, fed, err)
			}
			ticks.add(name, took.Seconds()*1e3)
			srv.o.check("serve.replies_are_json", json.Valid(miss), "tick %d %s: not JSON: %.80s", tick, path, miss)
			key, digest := fmt.Sprint(tick, w), sha256.Sum256(miss)
			if first, ok := b.first[key]; ok {
				srv.o.check("serve.ticks_repeat_across_repetitions", digest == first,
					"tick %d %s: reply differs from the first repetition's", tick, path)
			} else {
				b.first[key] = digest
			}
			if b.traced {
				after, err := srv.scrape()
				if err != nil {
					return nil, err
				}
				if sum, ok := after[foldSum]; ok {
					ticks.add("query.fold.ms."+label, (sum-before[foldSum])*1e3)
				}
				if w == serveWindows[0] {
					// A second endpoint misses too, but finds the live
					// bucket already encoded: the difference is the
					// encode the first miss after ingest pays.
					_, second, err := srv.get("/report/usage?window=" + w)
					if err != nil {
						return nil, err
					}
					ticks.add("query.miss.encode_ms", (took-second).Seconds()*1e3)
				}
			}
			for i := 0; i < b.hits; i++ {
				hit, took, err := srv.get(path)
				if err != nil {
					return nil, err
				}
				srv.o.check("serve.hits_repeat_the_miss", bytes.Equal(hit, miss), "tick %d %s: hit differs from miss", tick, path)
				ticks.add("serve.hit_p50_us", took.Seconds()*1e6)
			}
		}
	}
	for name, xs := range ticks {
		s.add(name, median(xs))
	}
	s[hitsUS] = ticks["serve.hit_p50_us"]
	if full, _, err = srv.get("/report/full?window=14d"); err != nil {
		return nil, err
	}
	series, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	hitsTotal, ok1 := series["cellcars_query_cache_hits_total"]
	misses, ok2 := series["cellcars_query_cache_misses_total"]
	if ok1 && ok2 {
		s.add("query.cache.hit_ratio", hitsTotal/(hitsTotal+misses))
		wantMisses := float64(len(b.in.Hours)*len(serveWindows) + 1)
		if b.traced {
			wantMisses += float64(len(b.in.Hours))
		}
		srv.o.check("serve.one_miss_per_window_per_tick", misses == wantMisses, "%v cache misses, expected %v", misses, wantMisses)
	}
	return full, nil
}
