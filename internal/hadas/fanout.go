package hadas

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// This file is the site-level face of the pipelined transport (DESIGN.md
// §14): a fan-out issues K remote operations in one round — requests to
// the same peer leave back-to-back in a single coalesced flush
// (transport.MultiCaller), distinct peers are driven concurrently — so the
// wall-clock cost is one RTT plus per-call epsilon, not K sequential RTTs.

// fanReq is one wire request of a fan-out batch.
type fanReq struct {
	peer    string
	verb    string
	payload []byte
}

// fanRes is the outcome of one fan-out request: its reply payload, or err.
type fanRes struct {
	payload []byte
	err     error
}

// fanOut issues every request pipelined and returns outcomes matching
// reqs by index. Per-peer batches share one connection round; a peer that
// cannot be reached fails only its own entries.
func (s *Site) fanOut(reqs []fanReq) []fanRes {
	byPeer := make(map[string][]int)
	for i, r := range reqs {
		byPeer[r.peer] = append(byPeer[r.peer], i)
	}
	out := make([]fanRes, len(reqs))
	var wg sync.WaitGroup
	for peer, idxs := range byPeer {
		wg.Add(1)
		go func(peer string, idxs []int) {
			defer wg.Done()
			conn, err := s.connTo(peer)
			if err != nil {
				for _, i := range idxs {
					out[i] = fanRes{err: err}
				}
				return
			}
			batch := make([]transport.MultiRequest, len(idxs))
			for k, i := range idxs {
				batch[k] = transport.MultiRequest{Verb: reqs[i].verb, Payload: reqs[i].payload}
			}
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
			defer cancel()
			results := transport.DoMulti(ctx, conn, batch)
			for k, i := range idxs {
				res := results[k]
				if res.Err != nil {
					err := rewrapRemote(res.Err)
					if errors.Is(err, transport.ErrCircuitOpen) {
						err = fmt.Errorf("%w: site %q: %v", ErrPeerDown, peer, err)
					}
					out[i] = fanRes{err: err}
					continue
				}
				out[i] = fanRes{payload: res.Payload}
			}
		}(peer, idxs)
	}
	wg.Wait()
	return out
}

// FanOutCall names one remote invocation of an InvokeFanOut batch.
type FanOutCall struct {
	Peer   string
	Caller security.Principal
	Target string
	Method string
	Args   []value.Value
}

// FanOutResult is the outcome of one FanOutCall, in batch order.
type FanOutResult struct {
	Peer   string
	Result value.Value
	Err    error
}

// InvokeFanOut performs every remote invocation of the batch in a single
// pipelined round: calls to the same peer are flushed back-to-back on one
// connection, peers run concurrently, and results keep batch order. Like
// InvokeRemote (and unlike InvokeRemoteFrom) the batch runs on no
// serialized call chain, which is the ambassador-update and query shape
// fan-out exists for; a method body relaying on behalf of an invocation
// must still use InvokeRemoteFrom per call so its chain travels.
func (s *Site) InvokeFanOut(calls []FanOutCall) []FanOutResult {
	reqs := make([]fanReq, len(calls))
	for i, c := range calls {
		reqs[i] = fanReq{peer: c.Peer, verb: verbInvoke,
			payload: encodeInvokeRequest(s.cfg.Name, c.Caller.Object, c.Target, c.Method, c.Args)}
	}
	raw := s.fanOut(reqs)
	out := make([]FanOutResult, len(calls))
	for i, r := range raw {
		out[i].Peer = calls[i].Peer
		if r.err != nil {
			out[i].Err = r.err
			continue
		}
		result, err := decodeInvokeResult(r.payload)
		if err != nil {
			out[i].Err = fmt.Errorf("invoke %s!%s.%s: %w",
				calls[i].Peer, calls[i].Target, calls[i].Method, err)
			continue
		}
		out[i].Result = result
	}
	return out
}

// TraceAgent resolves an agent's whole itinerary in one fan-out round.
// Every linked peer is asked its agent-trace view at once (one pipelined
// query per peer instead of one RTT per hop), the local view answers for
// this site, and the itinerary is stitched from the departed next-hop
// records: starting at start (this site when empty), Next pointers are
// followed through the collected answers until a resident site, a broken
// trail, or the vicinity's edge. It returns the visited sites in order
// and the final status at the last of them.
func (s *Site) TraceAgent(start, agentName string) ([]string, AgentStatus, error) {
	if start == "" {
		start = s.cfg.Name
	}
	peers := s.PeerNames()
	reqs := make([]fanReq, len(peers))
	for i, p := range peers {
		reqs[i] = fanReq{peer: p, verb: verbMigrationStatus, payload: encodeReq(value.NewMap(map[string]value.Value{
			"site":  value.NewString(s.cfg.Name),
			"agent": value.NewString(agentName),
		}))}
	}
	raw := s.fanOut(reqs)

	statuses := map[string]AgentStatus{s.cfg.Name: s.AgentArrivalStatus(agentName)}
	errs := map[string]error{}
	for i, p := range peers {
		if raw[i].err != nil {
			errs[p] = raw[i].err
			continue
		}
		v, err := decodeReq(raw[i].payload)
		if err != nil {
			errs[p] = err
			continue
		}
		m, ok := v.Map()
		if !ok {
			errs[p] = fmt.Errorf("agent status %s: malformed response", agentName)
			continue
		}
		statuses[p] = AgentStatus{State: field(m, "state"), Next: field(m, "next")}
	}

	path := []string{start}
	seen := map[string]bool{start: true}
	cur := start
	for {
		st, ok := statuses[cur]
		if !ok {
			if err := errs[cur]; err != nil {
				return path, AgentStatus{}, fmt.Errorf("trace %q: site %q unreachable: %w", agentName, cur, err)
			}
			return path, AgentStatus{}, fmt.Errorf("trace %q: %w: site %q outside this vicinity", agentName, ErrNotLinked, cur)
		}
		if st.State != arrivalDeparted || st.Next == "" {
			// Resident, failed, unknown, … — the trail ends here either way.
			return path, st, nil
		}
		if seen[st.Next] {
			// A revisited site whose youngest record still says departed
			// means the agent left again on a looping itinerary; its live
			// copy (if any) would have answered resident there.
			return path, st, fmt.Errorf("trace %q: itinerary loops at %q", agentName, st.Next)
		}
		cur = st.Next
		seen[cur] = true
		path = append(path, cur)
	}
}
