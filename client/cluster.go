package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	rbcast "repro"
	"repro/internal/cluster"
)

// Cluster is a fleet-aware rbcastd client. It builds the same
// consistent-hash ring the daemons build from their -peers list and sends
// each run straight to its fingerprint owner, so requests land on the
// node that holds (or will compute and cache) the result without burning
// a proxy hop inside the fleet. When the owner is unreachable the run
// fails over to the ring successors in order — the same nodes the fleet
// itself would pick up the shard on — so a single dead member costs a
// redial, not an outage.
//
// Members answering with a 307 redirect (daemons running -redirect) are
// followed transparently: the underlying http.Client replays the request
// body to the Location target, which in a consistent fleet is the owner
// this client would have picked anyway.
//
// A Cluster is safe for concurrent use.
type Cluster struct {
	ring    *cluster.Ring
	clients map[string]*Client
}

// NewCluster builds a fleet client over the member base URLs. The list
// must match the daemons' own -peers configuration — same URLs, any order
// — or this client's ring will disagree with the fleet's and every run
// will cost a proxy hop. opts apply to each per-member client; transport
// errors fail over to the next ring node immediately instead of retrying
// the dead member, while shed requests (429/503) still back off and retry
// against the member that shed them.
func NewCluster(members []string, opts Options) (*Cluster, error) {
	ring, err := cluster.New(members)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	cs := make(map[string]*Client, ring.Len())
	for _, m := range ring.Members() {
		mc := New(m, opts)
		mc.failfast = true
		cs[m] = mc
	}
	return &Cluster{ring: ring, clients: cs}, nil
}

// Members returns the fleet base URLs in ring-construction (sorted) order.
func (c *Cluster) Members() []string { return c.ring.Members() }

// Owner returns the member URL that owns a scenario's fingerprint.
func (c *Cluster) Owner(cfg rbcast.Config, plan rbcast.FaultPlan) string {
	return c.ring.Owner(rbcast.Job{Config: cfg, Plan: plan}.Fingerprint())
}

// Client returns the single-node client for one member URL (nil for a URL
// outside the fleet). Batch and sweep traffic is not fingerprint-routed —
// those execute on whichever node accepts them — so callers place it
// explicitly on the member of their choice.
func (c *Cluster) Client(member string) *Client { return c.clients[member] }

// Run executes one scenario against its fingerprint owner, failing over
// to ring successors while members are unreachable. A daemon that answers
// — success, shed-and-retried, or a terminal status error — ends the
// failover walk: only transport-level silence moves to the next node.
func (c *Cluster) Run(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (RunResult, error) {
	fp := rbcast.Job{Config: cfg, Plan: plan}.Fingerprint()
	var last error
	for _, member := range c.ring.Successors(fp, c.ring.Len()) {
		res, err := c.clients[member].Run(ctx, cfg, plan)
		if err == nil {
			return res, nil
		}
		var se *StatusError
		if errors.As(err, &se) {
			// The member answered; its verdict is the fleet's verdict.
			return RunResult{}, err
		}
		last = err
		if ctx.Err() != nil {
			break
		}
	}
	return RunResult{}, fmt.Errorf("client: no fleet member reachable for %s: %w", fp, last)
}

// CachedResult probes one daemon's result cache (GET /v1/cache/{fp}):
// the resident result and true, or false on a clean miss. The probe never
// executes a scenario and never perturbs the daemon's cache order or
// hit/miss counters — it is the fleet's own warm-from-a-sibling route,
// exposed for tooling that audits where fingerprints are resident.
func (c *Client) CachedResult(ctx context.Context, fingerprint string) (RunResult, bool, error) {
	_, data, err := c.do(ctx, http.MethodGet, "/v1/cache/"+fingerprint, nil, true)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return RunResult{}, false, nil
		}
		return RunResult{}, false, err
	}
	out, err := decodeRun(data)
	if err != nil {
		return RunResult{}, false, fmt.Errorf("client: decoding cache probe: %w", err)
	}
	return out, true, nil
}
