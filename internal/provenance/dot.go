package provenance

import (
	"fmt"
	"strings"

	"hawkeye/internal/packet"
	"hawkeye/internal/topo"
)

// DOT renders the wait-for graph in Graphviz format: port nodes as boxes
// (red when paused, shaded by queue depth), flow nodes as ellipses,
// port→port wait-for edges solid, flow→port edges dashed, port→flow
// contention edges colored by sign (contributor vs victim). Names, when
// a topology is supplied, use the human switch names; pass nil to fall
// back to N<id>.P<port>. This is how the repository regenerates the
// paper's Fig. 12 visuals.
func (g *Graph) DOT(t *topo.Topology) string {
	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [fontname=\"Helvetica\"];\n")

	portName := func(p topo.PortRef) string {
		if t != nil && int(p.Node) < len(t.Nodes) {
			return fmt.Sprintf("%s.P%d", t.Node(p.Node).Name, p.Port)
		}
		return p.String()
	}
	portID := func(p topo.PortRef) string { return fmt.Sprintf("\"port_%d_%d\"", p.Node, p.Port) }
	flowID := func(f packet.FiveTuple) string {
		return fmt.Sprintf("\"flow_%08x_%08x_%d_%d\"", f.SrcIP, f.DstIP, f.SrcPort, f.DstPort)
	}

	ports := make([]topo.PortRef, 0, len(g.Ports))
	for p := range g.Ports {
		ports = append(ports, p)
	}
	sortPortRefs(ports)
	for _, p := range ports {
		info := g.Ports[p]
		attrs := []string{"shape=box", fmt.Sprintf("label=\"%s\\npaused=%d q=%.0fB\"", portName(p), info.PausedNum, info.AvgQdepth())}
		if info.PausedSeverity() > 0 {
			attrs = append(attrs, "color=red", "penwidth=2")
		}
		fmt.Fprintf(&b, "  %s [%s];\n", portID(p), strings.Join(attrs, ", "))
	}

	// Flow nodes: only flows that participate in an edge.
	flowSet := make(map[packet.FiveTuple]bool)
	for f := range g.FlowPort {
		flowSet[f] = true
	}
	for _, fs := range g.PortFlow {
		for f := range fs {
			flowSet[f] = true
		}
	}
	flows := make([]packet.FiveTuple, 0, len(flowSet))
	for f := range flowSet {
		flows = append(flows, f)
	}
	packet.SortByString(flows)
	for _, f := range flows {
		fmt.Fprintf(&b, "  %s [shape=ellipse, label=\"%s\"];\n", flowID(f), f)
	}

	// Port -> port wait-for edges.
	for _, p := range ports {
		for _, q := range g.PortNeighbors(p) {
			fmt.Fprintf(&b, "  %s -> %s [label=\"%.1f\"];\n", portID(p), portID(q), g.PortEdges[p][q])
		}
	}
	// Flow -> port (flow paused at port).
	for _, f := range flows {
		targets := make([]topo.PortRef, 0, len(g.FlowPort[f]))
		for p := range g.FlowPort[f] {
			targets = append(targets, p)
		}
		sortPortRefs(targets)
		for _, p := range targets {
			fmt.Fprintf(&b, "  %s -> %s [style=dashed, label=\"%.0f\"];\n", flowID(f), portID(p), g.FlowPort[f][p])
		}
	}
	// Port -> flow contention edges, colored by sign.
	for _, p := range ports {
		pf := make([]packet.FiveTuple, 0, len(g.PortFlow[p]))
		for f := range g.PortFlow[p] {
			pf = append(pf, f)
		}
		packet.SortByString(pf)
		for _, f := range pf {
			w := g.PortFlow[p][f]
			color := "darkgreen" // contributor
			if w < 0 {
				color = "gray" // victim at this port
			}
			fmt.Fprintf(&b, "  %s -> %s [color=%s, label=\"%+.2f\"];\n", portID(p), flowID(f), color, w)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
