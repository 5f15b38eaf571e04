package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// service-mixed: two closed-loop clients POST /v1/compile to a
// service.NewAPI handler over loopback HTTP, backed by a disk store in a
// scratch directory. 70% of requests repeat a warmed request (a store
// hit); 30% carry a fresh options.seed (a store miss that writes and
// fsyncs).

var (
	serviceModels  = []string{"h2", "hubbard:2x2", "hubbard:2x3", "hubbard:3x3", "neutrino:2x2"}
	serviceMethods = []string{"jw", "bk", "hatt"}
)

const (
	serviceClients = 2
	hitShare       = 0.7
)

// combo is one warmed (model, method) request and what it returned.
type combo struct {
	model, method string
	body          []byte // the warm-up request, repeated verbatim by hits
	modes         int
	sets          []monoKey
	mapping       []string
	weight        int
}

type compileReply struct {
	PauliWeight int      `json:"pauli_weight"`
	Cached      bool     `json:"cached"`
	Mapping     []string `json:"mapping"`
}

// timedStore wraps the disk store the server compiles against, timing
// each Get and Put into the active recorder (none while untraced).
type timedStore struct {
	inner *store.Store
	rec   atomic.Pointer[recorder]
	owner sync.Map // store.Key → request span id, from a Get to its Put
	gets  atomic.Int64
	hits  atomic.Int64
}

// requestSpan recovers the client's request span id from the trace ID
// the client put in its traceparent header.
func requestSpan(ctx context.Context) int {
	sc := obs.SpanContextFrom(ctx)
	if !sc.Valid() {
		return -1
	}
	return int(binary.BigEndian.Uint64(sc.TraceID[8:])) - 1
}

func (t *timedStore) Get(key store.Key) (*store.Entry, bool) {
	return t.GetContext(context.Background(), key)
}

func (t *timedStore) GetContext(ctx context.Context, key store.Key) (*store.Entry, bool) {
	rec := t.rec.Load()
	if rec == nil {
		return t.inner.Get(key)
	}
	parent := requestSpan(ctx)
	s := rec.begin("store.get", parent, parent)
	e, ok := t.inner.Get(key)
	rec.end(s, 0)
	t.gets.Add(1)
	if ok {
		t.hits.Add(1)
	} else {
		t.owner.Store(key, parent)
	}
	return e, ok
}

func (t *timedStore) Put(key store.Key, e *store.Entry) {
	rec := t.rec.Load()
	if rec == nil {
		t.inner.Put(key, e)
		return
	}
	parent := -1
	if v, ok := t.owner.LoadAndDelete(key); ok {
		parent = v.(int)
	}
	s := rec.begin("store.put", parent, parent)
	t.inner.Put(key, e)
	rec.end(s, 0)
}

// server is one in-process hattd API.
type server struct {
	dir    string
	timed  *timedStore
	mgr    *service.Manager
	http   *http.Server
	url    string
	client *http.Client
	served chan error
	combos []combo
}

func startServer(workdir string, traced bool) (*server, error) {
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(0, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{dir: dir, served: make(chan error, 1)}
	cfg := service.Config{Store: st}
	if traced {
		s.timed = &timedStore{inner: st}
		cfg.Store = s.timed
	}
	s.mgr = service.New(cfg)
	api := service.NewAPI(s.mgr, st)
	mux := http.NewServeMux()
	mux.Handle("/v1/", api.Handler())
	mux.Handle("GET /metrics", api.MetricsHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}, Timeout: time.Minute}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for it, and removes its store.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.served
	s.mgr.Shutdown(ctx)
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
	syscall.Sync()
}

// post sends one compile request; span ≥ 0 names the request span in
// the traceparent so the store wrapper can attribute its calls.
func (s *server) post(body []byte, span int) (compileReply, float64, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return compileReply{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set("traceparent", fmt.Sprintf("00-%032x-%016x-01", span+1, span+1))
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return compileReply{}, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := ms(time.Since(t0))
	if err != nil {
		return compileReply{}, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return compileReply{}, d, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var rep compileReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return compileReply{}, d, err
	}
	return rep, d, nil
}

func requestBody(model, method string, seed int64) []byte {
	m := map[string]any{"model": model, "method": method, "include_strings": true}
	if seed != 0 {
		m["options"] = map[string]any{"seed": seed}
	}
	b, _ := json.Marshal(m)
	return b
}

// warm sends each (model, method) request once, checks the reply in
// full and keeps it as the reference its hits must reproduce.
func (s *server) warm() error {
	s.combos = s.combos[:0]
	for _, model := range serviceModels {
		h, err := models.Resolve(model)
		if err != nil {
			return err
		}
		sets, err := majoranaSets(h, 1e-12)
		if err != nil {
			return err
		}
		for _, method := range serviceMethods {
			c := combo{model: model, method: method, body: requestBody(model, method, 0), modes: h.Modes, sets: sets}
			rep, _, err := s.post(c.body, -1)
			if err == nil {
				err = checkCompiled(rep.Mapping, sets, h.Modes, rep.PauliWeight)
			}
			if err == nil && model == "h2" && method == "hatt" && rep.PauliWeight != 32 {
				err = fmt.Errorf("weight %d, the paper reports 32", rep.PauliWeight)
			}
			if err != nil {
				return fmt.Errorf("warm-up %s %s: %w", model, method, err)
			}
			c.mapping, c.weight = rep.Mapping, rep.PauliWeight
			s.combos = append(s.combos, c)
		}
	}
	return nil
}

// check verifies a reply: a hit must return the byte-identical mapping
// its warm-up stored; a miss is checked from scratch.
func (c *combo) check(rep compileReply, hit bool) error {
	if rep.Cached != hit {
		return fmt.Errorf("cached=%v on a %s", rep.Cached, map[bool]string{true: "repeat", false: "fresh seed"}[hit])
	}
	if hit {
		if !slices.Equal(rep.Mapping, c.mapping) || rep.PauliWeight != c.weight {
			return fmt.Errorf("store hit differs from the mapping its warm-up stored")
		}
		return nil
	}
	return checkCompiled(rep.Mapping, c.sets, c.modes, rep.PauliWeight)
}

type sample struct {
	timed
	hit bool
	err error
}

// serviceLoop runs the clients for d and returns every request's sample.
// Each client's request stream is a function of the seed and the client.
// The sample buffers are allocated up front, sized for 4000 requests a
// second, so the process's live heap (and with it the GC pace the server
// runs under) does not creep up while the phase runs.
func serviceLoop(r *run, s *server, d time.Duration, rec *recorder, phase int64) []sample {
	out := make([][]sample, serviceClients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		out[c] = make([]sample, 0, int(d.Seconds()*4000/serviceClients)+1024)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mix(r.seed, uint64(10+c))))
			for k := 0; time.Now().Before(deadline); k++ {
				cb := &s.combos[rng.Intn(len(s.combos))]
				hit := rng.Float64() < hitShare
				body := cb.body
				if !hit {
					// Never repeated within the run: client, phase and index.
					body = requestBody(cb.model, cb.method, 1+int64(c)+serviceClients*(int64(k)+phase<<32))
				}
				span := rec.begin("service.request", -1, -2)
				rep, v, err := s.post(body, span)
				rec.end(span, 0)
				if err == nil {
					err = cb.check(rep, hit)
				}
				if err != nil {
					err = fmt.Errorf("client %d request %d (%s %s): %w", c, k, cb.model, cb.method, err)
				}
				out[c] = append(out[c], sample{timed{time.Since(start).Seconds(), v, cpuMS()}, hit, err})
			}
		}(c)
	}
	wg.Wait()
	return slices.Concat(out...)
}

// tally counts samples into the run and splits the passing ones.
func tally(r *run, ss []sample) (all, hits, misses []timed) {
	for _, s := range ss {
		r.attempted++
		if s.err != nil {
			r.fail("service", s.err)
			continue
		}
		all = append(all, s.timed)
		if s.hit {
			hits = append(hits, s.timed)
		} else {
			misses = append(misses, s.timed)
		}
	}
	return all, hits, misses
}

func runService(r *run) error {
	if _, err := obs.InitLogger(io.Discard, "info", "json"); err != nil {
		return err
	}
	// Start from a quiet disk: write back whatever earlier processes left
	// dirty, so fsync costs only this run. Each discarded set-up's store is
	// removed and synced away untimed.
	syscall.Sync()
	var srv *server
	setup, err := r.repeatSetup(setupRuns, func() error {
		core.ResetBuildCache()
		var err error
		if srv, err = startServer(r.workdir, r.trace); err != nil {
			return err
		}
		return srv.warm()
	}, func() { srv.close() })
	if srv != nil {
		defer srv.close()
	}
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	r.info["repeat_share"] = hitShare
	r.info["store_fs"] = fsType(srv.dir)
	for _, c := range srv.combos {
		r.e2e["pauli_weight_sum"] += float64(c.weight)
	}

	tally(r, serviceLoop(r, srv, warmup, nil, 2))
	// Untraced; a traced run measures untraced for half its time, then
	// traced for the other half.
	d := r.seconds
	if r.trace {
		d /= 2
	}
	t0, steal := time.Now(), startSteal()
	ss := serviceLoop(r, srv, d, nil, 0)
	wall, stolen := time.Since(t0).Seconds(), steal.share()
	r.e2e["peak_rss_mb"] = peakRSSMB()
	plain, hits, misses := tally(r, ss)
	r.phaseMetrics(plain, wall, stolen, true)
	r.layer["hit_p50_ms"] = p50(hits, wall)
	r.layer["miss_p50_ms"] = p50(misses, wall)
	hv, hp := tail(lats(hits))
	mv, mp := tail(lats(misses))
	r.info["hit_tail"] = map[string]float64{"ms": hv, "percentile": hp}
	r.info["miss_tail"] = map[string]float64{"ms": mv, "percentile": mp}
	r.info["repeat_share_measured"] = float64(len(hits)) / float64(len(plain))
	if !r.trace {
		return nil
	}

	before, err := srv.stages()
	if err != nil {
		return err
	}
	srv.timed.rec.Store(r.rec)
	traced, _, _ := tally(r, serviceLoop(r, srv, d, r.rec, 1))
	srv.timed.rec.Store(nil)
	after, err := srv.stages()
	if err != nil {
		return err
	}
	serviceLayers(r, srv, lats(plain), lats(traced), before, after)
	return nil
}

// stageTotals is the server's hatt_stage_duration_seconds sum and count
// per stage, summed over methods.
type stageTotals map[string][2]float64

// stages scrapes /metrics.
func (s *server) stages() (stageTotals, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := stageTotals{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		slot := 0
		rest, ok := strings.CutPrefix(line, "hatt_stage_duration_seconds_sum{")
		if !ok {
			if rest, ok = strings.CutPrefix(line, "hatt_stage_duration_seconds_count{"); !ok {
				continue
			}
			slot = 1
		}
		_, after, ok := strings.Cut(rest, `stage="`)
		if !ok {
			continue
		}
		stage, _, _ := strings.Cut(after, `"`)
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		t := out[stage]
		t[slot] += v
		out[stage] = t
	}
	return out, sc.Err()
}

// serviceLayers derives the per-layer metrics of the traced phase: the
// client's request spans and the store wrapper's spans, plus the model
// and search stage totals the server's /metrics added during the phase.
func serviceLayers(r *run, s *server, plain, traced []float64, before, after stageTotals) {
	delta := func(stage string) (sumMS, count float64) {
		return (after[stage][0] - before[stage][0]) * 1000, after[stage][1] - before[stage][1]
	}
	st := r.rec.byName()
	get := func(name string) *layerStat {
		if v := st[name]; v != nil {
			return v
		}
		return &layerStat{}
	}
	gets, puts := get("store.get"), get("store.put")
	reqMS := sum(traced)
	modelMS, modelN := delta("model.build")
	searchMS, searchN := delta("compile.search")
	n := float64(len(traced))

	r.layer["trace.overhead_ms"] = median(traced) - median(plain)
	r.layer["service.request_ms"] = median(traced)
	if modelN > 0 {
		r.layer["models.build_ms"] = modelMS / modelN
	}
	if searchN > 0 {
		r.layer["core.search_ms"] = searchMS / searchN
	}
	r.layer["store.get_ms"] = median(gets.selfMS)
	r.layer["store.put_ms"] = median(puts.selfMS)
	if g := s.timed.gets.Load(); g > 0 {
		r.layer["store.hit_share"] = float64(s.timed.hits.Load()) / float64(g)
	}
	rest := reqMS - modelMS - searchMS - gets.total - puts.total
	if n > 0 {
		r.layer["service.unattributed_ms"] = rest / n
	}
	if reqMS > 0 {
		r.layer["models.share"] = modelMS / reqMS
		r.layer["core.share"] = searchMS / reqMS
		r.layer["store.share"] = (gets.total + puts.total) / reqMS
		r.layer["service.share"] = rest / reqMS
	}
}
