package main

import (
	"fmt"
	"strings"

	"powerapi/internal/collector"
	"powerapi/internal/core"
)

// checkHostReport checks one monitor round: per-PID watts and top-level
// per-cgroup watts each sum to ActiveWatts, and every monitored target got a
// figure.
func checkHostReport(rep core.AggregatedReport, monitored int) error {
	if len(rep.PerPID) != monitored {
		return fmt.Errorf("round attributed %d processes, want %d", len(rep.PerPID), monitored)
	}
	perPID := 0.0
	for _, w := range rep.PerPID {
		perPID += w
	}
	if !within(perPID, rep.ActiveWatts) {
		return fmt.Errorf("per-PID watts sum to %.9f, active watts are %.9f", perPID, rep.ActiveWatts)
	}
	top := 0.0
	for path, w := range rep.PerCgroup {
		if !strings.Contains(path, "/") {
			top += w
		}
	}
	if !within(top, rep.ActiveWatts) {
		return fmt.Errorf("top-level cgroup watts sum to %.9f, active watts are %.9f", top, rep.ActiveWatts)
	}
	return nil
}

// fleetWant is what one fleet round must hold: every node's total and every
// route key's cross-node sum, as the generator sent them.
type fleetWant struct {
	nodes   map[string]float64
	targets map[string]float64
}

// checkFleetReport checks one fleet round against what the nodes sent: the
// fleet total is the sum of the node totals, no node is stale, and every
// node total and route-key figure matches.
func checkFleetReport(rep *collector.FleetReport, want fleetWant) error {
	if rep.Nodes != len(want.nodes) || rep.StaleNodes != 0 {
		return fmt.Errorf("fleet round %d has %d live and %d stale nodes, want %d live", rep.Seq, rep.Nodes, rep.StaleNodes, len(want.nodes))
	}
	if len(rep.PerNode) != len(want.nodes) || len(rep.PerTarget) != len(want.targets) {
		return fmt.Errorf("fleet round %d has %d nodes and %d keys, want %d and %d", rep.Seq, len(rep.PerNode), len(rep.PerTarget), len(want.nodes), len(want.targets))
	}
	nodeSum := 0.0
	for name, w := range rep.PerNode {
		nodeSum += w
		if exp, ok := want.nodes[name]; !ok || !within(w, exp) {
			return fmt.Errorf("fleet round %d: node %s total %.9f, want %.9f", rep.Seq, name, w, exp)
		}
	}
	if !within(rep.TotalWatts, nodeSum) {
		return fmt.Errorf("fleet round %d: total %.9f, node totals sum to %.9f", rep.Seq, rep.TotalWatts, nodeSum)
	}
	for key, exp := range want.targets {
		if w, ok := rep.PerTarget[key]; !ok || !within(w, exp) {
			return fmt.Errorf("fleet round %d: key %s %.9f, want %.9f", rep.Seq, key, w, exp)
		}
	}
	return nil
}

// checkLinks checks the end-of-run counters of every layer that can lose
// data: collector decode errors, dropped payloads and sequence gaps, and the
// publisher side's dropped batches and send errors.
func checkLinks(st collector.Stats, droppedBatches, sendErrors uint64) error {
	var bad []string
	for _, n := range st.Nodes {
		if n.DecodeErrors != 0 || n.DroppedPayloads != 0 || n.SeqGaps != 0 {
			bad = append(bad, fmt.Sprintf("node %s: %d decode errors, %d dropped payloads, %d sequence gaps", n.Name, n.DecodeErrors, n.DroppedPayloads, n.SeqGaps))
		}
	}
	if droppedBatches != 0 || sendErrors != 0 {
		bad = append(bad, fmt.Sprintf("publisher: %d dropped batches, %d send errors", droppedBatches, sendErrors))
	}
	if len(bad) > 0 {
		return fmt.Errorf("lossy links: %s", strings.Join(bad, "; "))
	}
	return nil
}
