package analyzd

import (
	"encoding/json"
	"fmt"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// parseType maps an optional wire anomaly-type string to a type list
// (nil = any).
func parseType(s string) ([]diagnosis.AnomalyType, error) {
	if s == "" {
		return nil, nil
	}
	t, ok := diagnosis.ParseAnomalyType(s)
	if !ok {
		return nil, fmt.Errorf("unknown anomaly type %q", s)
	}
	return []diagnosis.AnomalyType{t}, nil
}

// wireNode maps the wire node filter (-1 or any negative = wildcard) to
// the store's.
func wireNode(n int) topo.NodeID {
	if n < 0 {
		return fleetstore.AnyNode
	}
	return topo.NodeID(n)
}

func queryFromWire(wq wire.IncidentQuery) (fleetstore.Query, error) {
	types, err := parseType(wq.Type)
	if err != nil {
		return fleetstore.Query{}, err
	}
	return fleetstore.Query{
		Fabric: wq.Fabric,
		Types:  types,
		Node:   wireNode(wq.Node),
		From:   sim.Time(wq.FromNS),
		To:     sim.Time(wq.ToNS),
		Limit:  wq.Limit,
	}, nil
}

func filterFromWire(req wire.SubscribeRequest) (fleetstore.Filter, error) {
	types, err := parseType(req.Type)
	if err != nil {
		return fleetstore.Filter{}, err
	}
	return fleetstore.Filter{
		Fabric: req.Fabric,
		Types:  types,
		Node:   wireNode(req.Node),
	}, nil
}

func incidentToWire(inc *fleetstore.Incident) wire.FleetIncident {
	return wire.FleetIncident{
		ID:         inc.ID,
		Type:       inc.Type.String(),
		Node:       int(inc.Node),
		FirstNS:    int64(inc.First),
		LastNS:     int64(inc.Last),
		Complaints: inc.Complaints,
		Victims:    inc.Victims,
		Fabrics:    inc.Fabrics,
		Culprits:   inc.Culprits,
		Resolved:   inc.Resolved,
		Summary:    inc.Summary(),
		Constant:   inc.Constant,
		Varying:    inc.Varying,
	}
}

func eventToWire(ev *fleetstore.Event) wire.IncidentEvent {
	return wire.IncidentEvent{
		Kind:     ev.Kind.String(),
		Incident: incidentToWire(&ev.Incident),
	}
}

// rollupQueryFromWire validates and maps a wire rollup query. Level is
// checked against the known hierarchy so a typo returns an error
// instead of a silently empty reply.
func rollupQueryFromWire(wq wire.RollupQuery) (rollup.QueryOpts, error) {
	if wq.Level != "" {
		ok := false
		for _, l := range rollup.Levels {
			if l == wq.Level {
				ok = true
				break
			}
		}
		if !ok {
			return rollup.QueryOpts{}, fmt.Errorf("unknown rollup level %q (want fabric, pod, switch or port)", wq.Level)
		}
	}
	return rollup.QueryOpts{
		Windows:         wq.Windows,
		Sliding:         wq.Sliding,
		Level:           wq.Level,
		Prefix:          wq.Prefix,
		ClosedOnly:      wq.ClosedOnly,
		IncludeSketches: wq.IncludeSketches,
	}, nil
}

func quantilesToWire(q rollup.Quantiles) wire.RollupQuantiles {
	return wire.RollupQuantiles{Count: q.Count, P50: q.P50, P90: q.P90, P99: q.P99, Max: q.Max}
}

// SummaryToWire renders a rollup summary onto the wire shape. The
// front door uses it too, to re-render a window it merged from several
// shards' sketch state.
func SummaryToWire(sum *rollup.Summary) wire.RollupSummary {
	out := wire.RollupSummary{
		StartNS:      int64(sum.Start),
		EndNS:        int64(sum.End),
		Closed:       sum.Closed,
		Records:      sum.Records,
		ByType:       sum.ByType,
		ByCause:      sum.ByCause,
		ByConfidence: sum.ByConfidence,
		StallNS:      quantilesToWire(sum.StallNS),
		Score:        quantilesToWire(sum.Score),
		Bytes:        sum.Bytes,
		Evictions:    sum.Evictions,
		Headline:     sum.Headline,
	}
	if len(sum.TopLevels) > 0 {
		out.Top = make(map[string][]wire.RollupHitter, len(sum.TopLevels))
		for level, hitters := range sum.TopLevels {
			hs := make([]wire.RollupHitter, len(hitters))
			for i, h := range hitters {
				hs[i] = wire.RollupHitter{Key: h.Key, Count: h.Count, Err: h.Err}
			}
			out.Top[level] = hs
		}
	}
	if sum.Sketches != nil {
		// Marshaling our own in-memory state cannot fail; an error here
		// would mean a corrupted sketch, which merging would catch anyway.
		if b, err := json.Marshal(sum.Sketches); err == nil {
			out.Sketches = b
		}
	}
	return out
}

func rollupResultToWire(res rollup.Result) wire.RollupResult {
	out := wire.RollupResult{}
	for i := range res.Panes {
		out.Windows = append(out.Windows, SummaryToWire(&res.Panes[i]))
	}
	if res.Sliding != nil {
		sl := SummaryToWire(res.Sliding)
		out.Sliding = &sl
	}
	return out
}

func rollupEventToWire(ev *rollup.Event) wire.RollupEvent {
	return wire.RollupEvent{
		Kind:    ev.Kind.String(),
		Summary: SummaryToWire(&ev.Summary),
	}
}
