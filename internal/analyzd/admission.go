package analyzd

import "sync/atomic"

// Admission control: the analyzer degrades in tiers keyed off the
// ingest queue's fill fraction, mirroring the paper's
// controller-assisted collection principle — under overload the control
// plane protects the diagnosis pipeline first. Live subscriptions are
// the cheapest to refuse (the client retries with backoff and misses
// nothing durable), fleet queries next; diagnosis ingest is NEVER shed
// by admission control — losing the complaint loses the provenance
// evidence, while a late query is merely late.

// State is the server lifecycle phase.
type State int32

const (
	// StateStarting: listener not yet serving.
	StateStarting State = iota
	// StateReplaying: recovering the fleet store from snapshot + WAL.
	StateReplaying
	// StateServing: normal operation.
	StateServing
	// StateDraining: Close in progress — no new sessions, WAL flushing,
	// subscribers being told goodbye.
	StateDraining
	// StateStopped: fully shut down.
	StateStopped
)

func (st State) String() string {
	switch st {
	case StateStarting:
		return "starting"
	case StateReplaying:
		return "replaying"
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	}
	return "unknown"
}

// Shed tier defaults: subscriptions go first at half-full, queries only
// when the queue is nearly saturated.
const (
	defaultShedSubscriptionsAt = 0.5
	defaultShedQueriesAt       = 0.9
	defaultRetryAfterMs        = 50
)

// Tier names carried in Throttle replies.
const (
	TierSubscriptions = "subscriptions"
	TierQueries       = "queries"
	TierRollups       = "rollups"
)

// tier is a verb's admission tier; tierNone is never shed.
type tier uint8

const (
	tierNone tier = iota
	tierSubscriptions
	tierQueries
	tierRollups
	numTiers
)

var tierNames = [numTiers]string{
	tierSubscriptions: TierSubscriptions,
	tierQueries:       TierQueries,
	tierRollups:       TierRollups,
}

// admission holds the shed threshold and the shed counter of each tier.
type admission struct {
	at           [numTiers]float64
	shed         [numTiers]atomic.Uint64
	retryAfterMs int64
}

func newAdmission(subsAt, queriesAt float64, retryMs int64) *admission {
	if subsAt <= 0 {
		subsAt = defaultShedSubscriptionsAt
	}
	if queriesAt <= 0 {
		queriesAt = defaultShedQueriesAt
	}
	if retryMs <= 0 {
		retryMs = defaultRetryAfterMs
	}
	a := &admission{retryAfterMs: retryMs}
	// Queries shed later than tails, because operators debugging an
	// overload need reads longer than they need tails. Rollup tails shed
	// with incident tails (a client can retry either) but are counted
	// apart, so an operator can see which stream was refused.
	a.at[tierSubscriptions] = subsAt
	a.at[tierQueries] = queriesAt
	a.at[tierRollups] = subsAt
	return a
}

// admit reports whether a request of shed tier t (not tierNone) may
// run at the given ingest-queue load, counting the shed when not.
func (a *admission) admit(t tier, load float64) bool {
	if load >= a.at[t] {
		a.shed[t].Add(1)
		return false
	}
	return true
}
