package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Live inputs. An http:// input is a diffnode control-plane address, read
// through its GET /spans. With -walk, difftrace needs only one entry
// point: every diffnode serves GET /neighbors, and when discovery is on
// each row carries the peer's control-plane address learned from its
// announces, so a breadth-first walk from a single seed enumerates the
// whole connected mesh.

const (
	// fetchTimeout bounds each request to a node.
	fetchTimeout = 5 * time.Second
	// maxBody bounds every body read from a node. A /spans body holds at
	// most telemetry.DefaultSpanSize records of a few hundred bytes each,
	// about 1 MiB, and a /neighbors body is smaller; the bound leaves
	// room for that while a broken or hostile node cannot make difftrace
	// buffer without limit.
	maxBody = 16 << 20
	// walkLimit bounds the fetches of a walk, failed ones included, so a
	// malformed mesh or a view full of forged addresses cannot make the
	// tool crawl forever or wait out a timeout on each.
	walkLimit = 1024
)

var client = &http.Client{Timeout: fetchTimeout}

// get fetches path from a node at addr (host:port, http:// optional) and
// returns the body of a 200 response.
func get(client *http.Client, addr, path string) ([]byte, error) {
	resp, err := client.Get("http://" + strings.TrimPrefix(addr, "http://") + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if len(body) > maxBody {
		return nil, fmt.Errorf("GET %s: body exceeds %d bytes", path, maxBody)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body[:min(len(body), 256)])))
	}
	return body, nil
}

// meshNode is one node's /neighbors envelope as seen during a walk.
type meshNode struct {
	Addr      string
	ID        uint32 `json:"id"`
	Boot      uint32 `json:"boot"`
	Degree    int    `json:"degree"`
	Cap       int    `json:"cap"`
	Discovery bool   `json:"discovery"`
	Neighbors []struct {
		HTTP   string `json:"http"`
		Member string `json:"member"`
	} `json:"neighbors"`
}

// walkMesh BFS-walks GET /neighbors from the entry addresses and returns
// every reachable node, sorted by ID, with Addr as host:port. Entry-point
// failures are fatal (the operator gave a bad address); failures on
// walked nodes are skipped with a notice on w, since a node can die
// mid-walk and one corpse must not abort the census.
func walkMesh(w io.Writer, client *http.Client, entries []string) ([]meshNode, error) {
	var nodes []meshNode
	seen := map[string]bool{}
	queue := make([]string, 0, len(entries))
	for _, a := range entries {
		if a = strings.TrimPrefix(a, "http://"); !seen[a] {
			seen[a] = true
			queue = append(queue, a)
		}
	}
	entrySet := len(queue)
	for i := 0; i < len(queue) && i < walkLimit; i++ {
		addr := queue[i]
		var n meshNode
		body, err := get(client, addr, "/neighbors")
		if err == nil {
			err = json.Unmarshal(body, &n)
		}
		if err != nil {
			if i < entrySet {
				return nil, fmt.Errorf("walk entry %s: %w", addr, err)
			}
			fmt.Fprintf(w, "difftrace: walk: skipping %s: %v\n", addr, err)
			continue
		}
		n.Addr = addr
		nodes = append(nodes, n)
		for _, nb := range n.Neighbors {
			if nb.HTTP != "" && !seen[nb.HTTP] {
				seen[nb.HTTP] = true
				queue = append(queue, nb.HTTP)
			}
		}
	}
	if len(queue) > walkLimit {
		fmt.Fprintf(w, "difftrace: walk: stopped after %d fetches (limit)\n", walkLimit)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes, nil
}

// walkReport prints the membership census: one line per node with its
// degree against the cap and a tally of neighbor rows by membership.
func walkReport(w io.Writer, nodes []meshNode) {
	fmt.Fprintf(w, "walked %d nodes:\n", len(nodes))
	for _, n := range nodes {
		tally := map[string]int{}
		for _, nb := range n.Neighbors {
			tally[nb.Member]++
		}
		parts := make([]string, 0, len(tally))
		for _, state := range []string{"neighbor", "candidate", "quarantined", "left", "dead"} {
			if tally[state] > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", tally[state], state))
			}
		}
		mode := "static"
		if n.Discovery {
			mode = "discovery"
		}
		fmt.Fprintf(w, "  node %d (%s): %s, boot %08x, degree %d/%d, peers: %s\n",
			n.ID, n.Addr, mode, n.Boot, n.Degree, n.Cap, strings.Join(parts, ", "))
	}
}
