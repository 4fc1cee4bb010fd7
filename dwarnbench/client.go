package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// client is the benchmark's one HTTP client: keep-alive net/http with
// at most conns connections to a host. One of them is reserved for
// polling run state, so a busy poller never delays a scheduled send.
// It counts every non-2xx status it sees, by code.
type client struct {
	hc *http.Client // sends, streams and everything else
	pc *http.Client // polls

	mu      sync.Mutex
	rejects map[int]int
}

func newClient(conns int) *client {
	mk := func(n int) *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     time.Minute,
		}}
	}
	return &client{hc: mk(max(1, conns-1)), pc: mk(1), rejects: map[int]int{}}
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	c.pc.CloseIdleConnections()
}

func (c *client) reject(code int) {
	c.mu.Lock()
	c.rejects[code]++
	c.mu.Unlock()
}

func (c *client) rejectCounts() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.rejects))
	for k, v := range c.rejects {
		out[k] = v
	}
	return out
}

// requestTimeout bounds one non-streaming request; a request that takes
// longer counts as failed.
const requestTimeout = 30 * time.Second

func (c *client) do(ctx context.Context, method, url, traceID string, body []byte) (int, []byte, error) {
	return c.doWith(ctx, c.hc, method, url, traceID, body)
}

// poll GETs url over the polling connection and decodes a 200 answer.
func (c *client) poll(ctx context.Context, url, traceID string, out any) error {
	st, body, err := c.doWith(ctx, c.pc, http.MethodGet, url, traceID, nil)
	if err != nil {
		return err
	}
	if st != 200 {
		return fmt.Errorf("GET %s: status %d", url, st)
	}
	return json.Unmarshal(body, out)
}

func (c *client) doWith(ctx context.Context, hc *http.Client, method, url, traceID string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set("X-Request-ID", traceID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.reject(resp.StatusCode)
	}
	return resp.StatusCode, b, nil
}

func (c *client) get(ctx context.Context, url, traceID string) (int, []byte, error) {
	return c.do(ctx, http.MethodGet, url, traceID, nil)
}

// postJSON sends v and, on a 2xx answer, decodes the response into out.
// Any other status is an error naming it.
func (c *client) postJSON(ctx context.Context, url, traceID string, v, out any) error {
	_, err := c.postTimed(ctx, url, traceID, v, out)
	return err
}

// postTimed is postJSON that also returns the request's round trip,
// which excludes encoding the request and decoding the answer.
func (c *client) postTimed(ctx context.Context, url, traceID string, v, out any) (time.Duration, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	st, body, err := c.do(ctx, http.MethodPost, url, traceID, b)
	rt := time.Since(t)
	if err != nil {
		return rt, err
	}
	if st < 200 || st > 299 {
		return rt, fmt.Errorf("POST %s: status %d: %s", url, st, strings.TrimSpace(string(body)))
	}
	if out == nil {
		return rt, nil
	}
	return rt, json.Unmarshal(body, out)
}

func (c *client) getJSON(ctx context.Context, url, traceID string, out any) error {
	st, body, err := c.get(ctx, url, traceID)
	if err != nil {
		return err
	}
	if st != 200 {
		return fmt.Errorf("GET %s: status %d", url, st)
	}
	return json.Unmarshal(body, out)
}

// stream reads a Server-Sent Events stream, calling fn for each event
// until the server closes the stream, fn returns false, or ctx ends.
func (c *client) stream(ctx context.Context, url, traceID string, fn func(event string, data []byte) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if traceID != "" {
		req.Header.Set("X-Request-ID", traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		c.reject(resp.StatusCode)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if event != "" && !fn(event, data) {
				return nil
			}
			event, data = "", nil
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		}
	}
	return sc.Err()
}
