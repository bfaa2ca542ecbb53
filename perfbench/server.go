package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// server is one `cardnet -mode serve` subprocess.
type server struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error // set before exited closes
}

// startServer launches cardnet serve on a free loopback port and returns
// once /healthz answers 200. traceLog "" leaves tracing off; otherwise every
// request's stage trace is written there.
func startServer(bin, model, logPath, traceLog string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-mode", "serve", "-model", model, "-addr", addr, "-tracelog", "off"}
	if traceLog != "" {
		args = append(args, "-trace-sample-rate", "1", "-tracelog", traceLog)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	s := &server{cmd: exec.Command(bin, args...), url: "http://" + addr, exited: make(chan struct{})}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited before /healthz: %v\n%s", s.err, tail(logPath))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not healthy after 60s\n%s", tail(logPath))
		}
	}
}

// stop sends SIGTERM (the server drains and flushes its trace log), waits
// up to 15s, then kills; it returns once the process has exited.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakMB is the server's VmHWM; call it before stop.
func (s *server) peakMB() (float64, error) {
	return vmHWMMB(strconv.Itoa(s.cmd.Process.Pid))
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	raw, _ := os.ReadFile(path)
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// newClient is the benchmark's HTTP client: keep-alive connections, at most
// nproc of them per host.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// estimateReply is the part of the /estimate response the benchmark checks.
type estimateReply struct {
	Estimate *float64 `json:"estimate"`
}

// postEstimate sends one pre-encoded /estimate body and returns the estimate
// and the X-Trace-Id header.
func postEstimate(c *http.Client, url string, body []byte) (float64, string, error) {
	resp, err := c.Post(url+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var r estimateReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, "", err
	}
	if r.Estimate == nil {
		return 0, "", errors.New("response has no estimate")
	}
	return *r.Estimate, resp.Header.Get("X-Trace-Id"), nil
}

// readTraces parses a server trace log into records keyed by trace ID.
func readTraces(path string) (map[string]traceRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]traceRec{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r traceRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("trace log: %w", err)
		}
		out[r.ID] = r
	}
	return out, sc.Err()
}
