// service drives the simulation service end to end as a Go client: it
// submits a five-pair sweep to ampserve, follows the NDJSON stream as
// each pair finishes, and prints the paper's weighted IPC/Watt
// comparison (proposed vs HPE and Round Robin) as a table.
//
// With no -addr it starts an in-process service on an ephemeral port
// first, so the example is self-contained:
//
//	go run ./examples/service
//	go run ./examples/service -addr 127.0.0.1:8080   # against a daemon
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"

	"ampsched/internal/experiments"
	"ampsched/internal/server"
)

func main() {
	addr := ""
	if len(os.Args) > 2 && os.Args[1] == "-addr" {
		addr = os.Args[2]
	}
	if addr == "" {
		var stop func()
		var err error
		addr, stop, err = startInProcess()
		if err != nil {
			fail(err)
		}
		defer stop()
		fmt.Printf("started in-process service on %s\n\n", addr)
	}
	base := "http://" + addr

	// Submit a five-pair sweep. Seed picks the random pair draw; the
	// interval engine keeps the example fast while preserving ranking.
	spec := map[string]interface{}{"pairs": 5, "seed": 7, "fidelity": "interval"}
	body, err := json.Marshal(spec)
	if err != nil {
		fail(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fail(err)
	}
	var submitted struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil {
		fail(err)
	}
	fmt.Printf("job %s submitted (%s); streaming outcomes:\n\n", submitted.ID, submitted.State)

	// Follow the NDJSON stream: one line per finished pair, then a
	// terminal {"done":true,...} line.
	stream, err := http.Get(base + "/v1/jobs/" + submitted.ID + "/stream")
	if err != nil {
		fail(err)
	}
	defer stream.Body.Close()

	type pairLine struct {
		Done             bool    `json:"done"`
		State            string  `json:"state"`
		Error            string  `json:"error"`
		Pair             string  `json:"pair"`
		Cached           bool    `json:"cached"`
		Failed           bool    `json:"failed"`
		WeightedVsHPEPct float64 `json:"weighted_vs_hpe_pct"`
		WeightedVsRRPct  float64 `json:"weighted_vs_rr_pct"`
	}
	fmt.Printf("  %-24s %14s %14s %s\n", "pair", "vs HPE", "vs RR", "source")
	var sumHPE, sumRR float64
	var n int
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var l pairLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			fail(fmt.Errorf("bad stream line %q: %w", sc.Text(), err))
		}
		if l.Done {
			if l.State != "done" {
				fail(fmt.Errorf("job finished %s: %s", l.State, l.Error))
			}
			break
		}
		if l.Failed {
			fmt.Printf("  %-24s %30s\n", l.Pair, "degraded: "+l.Error)
			continue
		}
		source := "simulated"
		if l.Cached {
			source = "cache"
		}
		fmt.Printf("  %-24s %+13.2f%% %+13.2f%% %s\n", l.Pair, l.WeightedVsHPEPct, l.WeightedVsRRPct, source)
		sumHPE += l.WeightedVsHPEPct
		sumRR += l.WeightedVsRRPct
		n++
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	if n == 0 {
		fail(fmt.Errorf("no pair completed"))
	}
	fmt.Printf("\n  mean weighted IPC/Watt gain of the proposed scheduler: %+.2f%% vs HPE, %+.2f%% vs RR over %d pairs\n",
		sumHPE/float64(n), sumRR/float64(n), n)
}

// startInProcess brings up the same stack ampserve runs, on an
// ephemeral port, with test-scale options.
func startInProcess() (addr string, stop func(), err error) {
	opt := experiments.DefaultOptions()
	opt.InstrLimit = 200_000
	opt.ContextSwitch = 20_000
	opt.ProfileInstrLimit = 100_000
	srv, err := server.New(server.Config{
		BaseOptions: opt,
		Workers:     4,
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop = func() {
		if err := srv.Drain(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "service: drain:", err)
		}
		if err := hs.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "service: shutdown:", err)
		}
	}
	return ln.Addr().String(), stop, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "service:", err)
	os.Exit(1)
}
