package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"pads/internal/accum"
	"pads/internal/datagen"
	"pads/internal/interp"
	"pads/internal/padsd"
	"pads/internal/padsrt"
	"pads/internal/value"
	"pads/internal/xmlgen"
)

// The clf-daemon traffic: a pool of CLF bodies of clfBodyLines lines each
// (about 34 KB), POSTed by clfClients closed-loop clients (one per CPU of
// the 2-core host the benchmark was tuned on) in a seeded mix of the three
// parse endpoints. A request then takes a few milliseconds, so a run
// collects thousands of latencies: more than ten beyond the p99.
const (
	clfBodies    = 12
	clfBodyLines = 400
	clfClients   = 2
	// daemonBursts splits a timed window into bursts with calibration
	// samples between them.
	daemonBursts = 8
	// clfRefRecords sizes the Sirius corpus of the select and count passes
	// (about 2.8 MB).
	clfRefRecords = 16000
)

var clfModes = []string{"accum", "csv", "xml"}

// clfRecordTag is the element name xmlgen gives each CLF record.
const clfRecordTag = "entry_t"

// reqIDHeader carries a request's number to the traced run's middleware, so
// handler time can be matched with the client's latency.
const reqIDHeader = "X-Perfbench-Req"

type daemonReq struct {
	id, body, mode int
	latency        time.Duration // wall time, sending to the last byte
	busy           time.Duration // latency less the host's steal share
	records        int
}

// runCLFDaemon runs an in-process padsd.Server on loopback and drives it
// with closed-loop clients.
func runCLFDaemon(e *env) (*outcome, error) {
	bodies := make([]clfBody, clfBodies)
	var pool bytes.Buffer
	for i := range bodies {
		var buf bytes.Buffer
		cfg := datagen.DefaultCLF(clfBodyLines)
		cfg.Seed = mix(e.seed, 100+uint64(i))
		st, err := datagen.CLF(&buf, cfg)
		if err != nil {
			return nil, fmt.Errorf("generating clf body: %w", err)
		}
		bodies[i] = clfBody{data: buf.Bytes(), lines: st.Records, badLengths: st.BadLengths}
		pool.Write(buf.Bytes())
	}
	// select_mb_s and count_mb_s are the generated parser's Figure 10
	// selection and count on every workload. CLF has no Figure 10 programs,
	// so here they read a Sirius corpus made from the run's seed.
	ref, _, err := genSirius(e.seed, clfRefRecords)
	if err != nil {
		return nil, err
	}
	desc, compileDur, err := compile(clfDescPath)
	if err != nil {
		return nil, err
	}

	// The daemon, with the default tenant policy: no rate limit, no stream
	// cap and no error budget, so no request of the mix is refused.
	srv := padsd.New(padsd.Config{})
	ht := &handlerTimes{m: make(map[int]time.Duration)}
	var handler http.Handler = srv.Handler()
	var tr *tracer
	if e.trace {
		tr = newTracer()
		handler = ht.wrap(srv.Handler(), tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
	}()
	base := "http://" + ln.Addr().String()
	src, err := os.ReadFile(clfDescPath)
	if err != nil {
		return nil, err
	}
	id, err := upload(base, src)
	if err != nil {
		return nil, err
	}
	clients := make([]*client, clfClients)
	for i := range clients {
		clients[i] = &client{
			hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
			url: base + "/v1/parse/",
			id:  id,
		}
		defer clients[i].hc.CloseIdleConnections()
	}

	// Warm-up: every body through every endpoint once, each response
	// checked in full (XML through encoding/xml). The timed loop then
	// compares each response with the checked one for its body and mode.
	out := &outcome{}
	refs := make([][][]byte, len(bodies))
	for b := range bodies {
		refs[b] = make([][]byte, len(clfModes))
		for m := range clfModes {
			resp, _, err := clients[0].do(bodies[b].data, m, 0)
			if err != nil {
				return nil, err
			}
			out.check(checkResponse(resp, m, bodies[b]))
			refs[b][m] = append([]byte(nil), resp...)
		}
	}
	setup := timedSetup()
	from := cal.mark()
	fmt.Fprintf(e.log, "clf-daemon: %d bodies of %d lines, %d bytes, setup %.2fs\n", len(bodies), clfBodyLines, pool.Len(), setup.Seconds())

	metricsBefore, err := scrape(base)
	if err != nil {
		return nil, err
	}
	var seq int
	var seqMu sync.Mutex
	nextID := func() int {
		seqMu.Lock()
		defer seqMu.Unlock()
		seq++
		return seq
	}
	// burst runs the clients for budget and returns every request, each
	// with its latency less the host's steal share over the burst, and the
	// burst's wall time less the same share.
	burst := func(budget time.Duration, phase uint64) ([]daemonReq, time.Duration, error) {
		var wg sync.WaitGroup
		results := make([][]daemonReq, len(clients))
		errs := make([]error, len(clients))
		s0 := stealTicks()
		t0 := time.Now()
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				rng := datagen.NewRand(mix(e.seed, 200+phase*16+uint64(i)))
				for time.Since(t0) < budget {
					r := daemonReq{id: nextID(), body: rng.Intn(len(bodies)), mode: rng.Intn(len(clfModes))}
					start := time.Now()
					resp, lat, err := c.do(bodies[r.body].data, r.mode, r.id)
					if err != nil {
						errs[i] = err
						return
					}
					r.latency = lat
					if tr != nil && ht.on() {
						tr.record("client."+clfModes[r.mode], clientSpan(r.id), 0, start, start.Add(lat))
					}
					if err := sameBytes("clf-daemon "+clfModes[r.mode]+" response", resp, refs[r.body][r.mode]); err != nil {
						errs[i] = err
						return
					}
					r.records = bodies[r.body].lines
					results[i] = append(results[i], r)
				}
			}(i, c)
		}
		wg.Wait()
		wall := time.Since(t0)
		keep := 1 - stealFraction(s0, stealTicks(), wall)
		var all []daemonReq
		for i := range results {
			for _, r := range results[i] {
				r.busy = time.Duration(float64(r.latency) * keep)
				all = append(all, r)
			}
		}
		return all, time.Duration(float64(wall) * keep), errors.Join(errs...)
	}
	// window runs daemonBursts bursts of the clients over budget, with two
	// calibration samples between bursts, taken while the process is
	// otherwise idle. It returns every request, the summed busy time of
	// the bursts, and the allocator counters over them.
	window := func(budget time.Duration, phase uint64) ([]daemonReq, time.Duration, memSnap, error) {
		var all []daemonReq
		var busy time.Duration
		var mem memSnap
		for b := uint64(0); b < daemonBursts; b++ {
			cal.sample()
			cal.sample()
			m0 := readMem()
			rss.begin()
			reqs, d, err := burst(budget/daemonBursts, phase*daemonBursts+b)
			rss.end()
			mem = mem.add(readMem().sub(m0))
			if err != nil {
				return nil, 0, mem, err
			}
			all, busy = append(all, reqs...), busy+d
		}
		return all, busy, mem, nil
	}
	reqBytes := func(reqs []daemonReq) (n int64, records int) {
		for _, r := range reqs {
			n += int64(len(bodies[r.body].data))
			records += r.records
		}
		return n, records
	}
	// latencies are the requests' busy times (the latency each would have
	// had on the CPU time it was given) in reference seconds.
	latencies := func(reqs []daemonReq, k float64, mode int) []time.Duration {
		var ls []time.Duration
		for _, r := range reqs {
			if mode < 0 || r.mode == mode {
				ls = append(ls, refTime(r.busy, k))
			}
		}
		return ls
	}

	var all []daemonReq
	if !e.trace {
		reqs, busy, mem, err := window(e.seconds*3/4, 0)
		if err != nil {
			return nil, err
		}
		all = reqs
		n, records := reqBytes(reqs)
		k := cal.scale(from) // the samples taken between the bursts
		sel, cnt, err := siriusRefPasses(e.seconds/4, ref)
		if err != nil {
			return nil, err
		}
		ls := latencies(reqs, k, -1)
		out.values = map[string]float64{
			"setup_s":                setup.Seconds(),
			"throughput_mb_s":        mbPerSec(n, refTime(busy, k)),
			"select_mb_s":            mbPerSec(int64(len(ref)), sel),
			"count_mb_s":             mbPerSec(int64(len(ref)), cnt),
			"allocs_per_record":      float64(mem.mallocs) / float64(records),
			"alloc_bytes_per_record": float64(mem.bytes) / float64(records),
			"peak_rss_mb":            rss.peak(),
			"latency_p50_ms":         ms(median(ls)),
			"latency_p99_ms":         ms(percentile(ls, 99)),
		}
		fmt.Fprintf(e.log, "clf-daemon: %d requests\n", len(reqs))
	} else {
		v := layerDefaults()
		v["core.compile_ms"] = ms(compileDur)
		untraced, ubusy, _, err := window(e.seconds/3, 0)
		ubusy = refTime(ubusy, cal.scale(from))
		from := cal.mark()
		if err != nil {
			return nil, err
		}
		un, _ := reqBytes(untraced)
		ht.enable()
		before, err := scrape(base)
		if err != nil {
			return nil, err
		}
		traced, tbusy, mem, err := window(e.seconds/3, 1)
		if err != nil {
			return nil, err
		}
		after, err := scrape(base)
		if err != nil {
			return nil, err
		}
		tbusy = refTime(tbusy, cal.scale(from))
		all = append(untraced, traced...)
		tn, _ := reqBytes(traced)
		perReq := func(name string) float64 { return float64(after[name]-before[name]) / float64(len(traced)) }
		v["padsrt.bytes_read"] = perReq("pads_source_bytes_read_total")
		v["padsrt.fills"] = perReq("pads_source_fills_total")
		v["padsrt.checkpoints"] = perReq("pads_speculation_checkpoints_total")
		v["padsrt.restores"] = perReq("pads_speculation_restores_total")
		v["padsrt.eor_resyncs"] = perReq("pads_eor_resyncs_total")
		v["runtime.gc_cycles"] = float64(mem.gcs) / float64(len(traced))
		v["runtime.gc_pause_ms"] = float64(mem.pauseNS) / 1e6 / float64(len(traced))
		var handler, transport []time.Duration
		for _, r := range traced {
			if h, ok := ht.take(r.id); ok {
				handler = append(handler, h)
				transport = append(transport, r.latency-h)
			}
		}
		v["padsd.handler_ms_p50"] = ms(median(handler))
		v["padsd.transport_ms_p50"] = ms(median(transport))
		for m, name := range clfModes {
			v["padsd."+name+"_ms_p50"] = ms(median(latencies(traced, 1, m)))
		}
		v["trace.throughput_mb_s"] = mbPerSec(tn, tbusy)
		v["trace.overhead_pct"] = overheadPct(time.Duration(float64(ubusy)/float64(un)*1e6), time.Duration(float64(tbusy)/float64(tn)*1e6))
		if err := consumerLayers(v, desc.Interp, pool.Bytes(), e.seconds/3); err != nil {
			return nil, err
		}
		out.values = v
		if err := tr.write(e.spans); err != nil {
			return nil, err
		}
	}
	out.attempted = len(bodies)*len(clfModes) + len(all)

	metricsAfter, err := scrape(base)
	if err != nil {
		return nil, err
	}
	var sent uint64
	for _, r := range all {
		sent += uint64(r.records)
	}
	const recordsCounter = "padsd_records_parsed_total"
	out.check(checkMetricsDelta(sent, metricsBefore[recordsCounter], metricsAfter[recordsCounter]))
	return out, nil
}

type client struct {
	hc   *http.Client
	url  string
	id   string
	resp bytes.Buffer
}

// do POSTs one body to one endpoint and returns the response body (valid
// until the next call: the client reuses its buffer) and the wall time from sending to the last byte.
// Anything but a 200 with a clean trailer is an error.
func (c *client) do(body []byte, mode, reqID int) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+clfModes[mode]+"?desc="+c.id, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if reqID > 0 {
		req.Header.Set(reqIDHeader, strconv.Itoa(reqID))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("clf-daemon: %s answered %d: %s", clfModes[mode], resp.StatusCode, bytes.TrimSpace(c.resp.Bytes()))
	}
	if msg := resp.Trailer.Get("X-Pads-Error"); msg != "" {
		return nil, 0, fmt.Errorf("clf-daemon: %s stream failed: %s", clfModes[mode], msg)
	}
	return c.resp.Bytes(), lat, nil
}

func checkResponse(resp []byte, mode int, b clfBody) error {
	switch clfModes[mode] {
	case "accum":
		return checkAccumResponse(string(resp), b)
	case "csv":
		return checkCSVResponse(resp, b)
	default:
		return checkXMLResponse(resp, b, clfRecordTag)
	}
}

func upload(base string, src []byte) (string, error) {
	resp, err := http.Post(base+"/v1/descriptions?name=clf", "text/plain", bytes.NewReader(src))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("uploading description: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("uploading description: %w", err)
	}
	return info.ID, nil
}

// scrape reads every plain counter from the daemon's /metrics.
func scrape(base string) (map[string]uint64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseCounters(body)
}

// handlerTimes is the traced run's middleware around Server.Handler(): once
// enabled, it times each request inside the daemon and records it as a
// span, a child of the client's span for the same request.
type handlerTimes struct {
	mu      sync.Mutex
	enabled bool
	m       map[int]time.Duration
}

func (h *handlerTimes) wrap(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		id, _ := strconv.Atoi(r.Header.Get(reqIDHeader))
		if id == 0 || !h.on() {
			return
		}
		h.mu.Lock()
		h.m[id] = t1.Sub(t0)
		h.mu.Unlock()
		tr.record("padsd.handler", 0, clientSpan(id), t0, t1)
	})
}

func (h *handlerTimes) enable() {
	h.mu.Lock()
	h.enabled = true
	h.mu.Unlock()
}

func (h *handlerTimes) on() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.enabled
}

// take returns the handler time of request id.
func (h *handlerTimes) take(id int) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.m[id]
	return d, ok
}

// clientSpan is the span id of request id's client span, set apart from the
// ids the tracer hands out.
func clientSpan(id int) int { return 1<<40 + id }

// consumerLayers times the consumers over records parsed beforehand, so the
// parse is not in the measurement: xmlgen.WriteXML in seconds per MB of
// input, and Accum.Add in seconds per pass over the records. The parse
// itself gives the VM's allocations per record.
func consumerLayers(v map[string]float64, in *interp.Interp, data []byte, budget time.Duration) error {
	recs, allocs, allocBytes, err := preParse(in, data)
	if err != nil {
		return err
	}
	v["interp.allocs_per_record"] = allocs
	v["interp.alloc_bytes_per_record"] = allocBytes
	mb := float64(len(data)) / 1e6
	var xmlT, addT []time.Duration
	var buf bytes.Buffer
	t0 := time.Now()
	for len(xmlT) < 3 || time.Since(t0) < budget {
		buf.Reset()
		c0 := cpuTime()
		for _, r := range recs {
			if err := xmlgen.WriteXML(&buf, r, clfRecordTag, 1); err != nil {
				return err
			}
		}
		c1 := cpuTime()
		acc := accum.New(accum.DefaultConfig())
		for _, r := range recs {
			acc.Add(r)
		}
		c2 := cpuTime()
		xmlT, addT = append(xmlT, c1.Sub(c0)), append(addT, c2.Sub(c1))
	}
	v["xmlgen.write_s_per_mb"] = median(xmlT).Seconds() / mb
	v["accum.add_s"] = median(addT).Seconds()
	return nil
}

// preParse parses every record of data with the VM, keeping the values, and
// returns the allocations per record the parse made.
func preParse(in *interp.Interp, data []byte) ([]value.Value, float64, float64, error) {
	m0 := readMem()
	rr, err := in.NewRecordReader(padsrt.NewBytesSource(data), nil)
	if err != nil {
		return nil, 0, 0, err
	}
	var recs []value.Value
	for rr.More() {
		recs = append(recs, rr.Read())
	}
	if err := rr.Err(); err != nil && !errors.Is(err, io.EOF) {
		return nil, 0, 0, err
	}
	m := readMem().sub(m0)
	n := float64(len(recs))
	return recs, float64(m.mallocs) / n, float64(m.bytes) / n, nil
}
