package analyzd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// packetFiveTuple keeps the server file free of a direct packet import
// cycle concern; it is just the packet type.
type packetFiveTuple = packet.FiveTuple

// RetryConfig shapes the client's reconnect behaviour: capped
// exponential backoff with symmetric jitter. A switch CPU pushing
// reports must survive analyzer restarts and flaky management networks
// without turning one reset into a lost diagnosis session.
type RetryConfig struct {
	// MaxAttempts bounds tries per operation, first attempt included
	// (<1 behaves as 1: no retry).
	MaxAttempts int
	// BaseBackoff doubles per retry up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac spreads each delay by ±frac so a fleet of reconnecting
	// clients does not stampede the analyzer in lockstep.
	JitterFrac float64
	// Seed makes the jitter sequence reproducible.
	Seed uint64
	// Sleep is the delay function (nil = time.Sleep; tests inject a
	// recorder).
	Sleep func(time.Duration)
}

// Delay is the one backoff schedule every retry loop in the fleet tier
// shares: min(BaseBackoff<<attempt, MaxBackoff), scaled by 1 ±
// JitterFrac drawn from rng (nil rng or zero JitterFrac: no jitter).
func (rc RetryConfig) Delay(rng *sim.Rand, attempt int) time.Duration {
	d := rc.BaseBackoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt && d < rc.MaxBackoff; i++ {
		d *= 2
	}
	if rc.MaxBackoff > 0 && d > rc.MaxBackoff {
		d = rc.MaxBackoff
	}
	if rc.JitterFrac > 0 && rng != nil {
		d = time.Duration(float64(d) * (1 + rc.JitterFrac*(2*rng.Float64()-1)))
	}
	return d
}

// DefaultRetryConfig returns the production defaults: 5 attempts,
// 10 ms -> 500 ms backoff, 20% jitter.
func DefaultRetryConfig() RetryConfig {
	return RetryConfig{
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		JitterFrac:  0.2,
		Seed:        1,
	}
}

// Client is one analyzer session. Request/reply operations transparently
// redial and re-handshake on transport failure (connection reset, broken
// pipe) with capped exponential backoff. Reports pushed before a
// reconnect are gone with the old session — the analyzer answers later
// diagnoses from whatever survives, with the confidence machinery
// reporting the gap — so callers that must have full telemetry should
// re-send reports after an operation error.
type Client struct {
	conn  net.Conn
	addr  string
	hello wire.Hello
	retry RetryConfig
	rng   *sim.Rand

	// Redials counts successful reconnects after transport failures.
	Redials int

	// lastSub remembers the most recent successful subscription request
	// (incident or rollup) so Resubscribe can restore the tail on a
	// fresh session after the analyzer restarts.
	lastSubType wire.MsgType
	lastSubBody []byte
}

// Dial connects and performs the handshake: the fabric topology and the
// telemetry epoch are session state on the server. The session reports
// into the server's default fabric; use DialFabric to name one.
func Dial(addr string, t *topo.Topology, epochNS int64) (*Client, error) {
	return DialFabric(addr, "", t, epochNS)
}

// DialFabric is Dial with an explicit fabric name: every diagnosis this
// session completes is filed under that name in the fleet store.
func DialFabric(addr, fabric string, t *topo.Topology, epochNS int64) (*Client, error) {
	return DialFabricRetry(addr, fabric, t, epochNS, DefaultRetryConfig())
}

// DialFabricRetry is DialFabric with explicit retry behaviour.
func DialFabricRetry(addr, fabric string, t *topo.Topology, epochNS int64, rc RetryConfig) (*Client, error) {
	spec, err := json.Marshal(t.ToSpec())
	if err != nil {
		return nil, fmt.Errorf("analyzd: topology: %w", err)
	}
	hello := wire.Hello{Version: wire.ProtocolVersion, Topo: spec, EpochNS: epochNS, Fabric: fabric}
	return dialHello(addr, hello, rc)
}

// DialOperator opens an operator session: no topology, no reports or
// diagnoses — only fleet incident queries and live subscriptions.
func DialOperator(addr string) (*Client, error) {
	return DialOperatorRetry(addr, DefaultRetryConfig())
}

// DialOperatorRetry is DialOperator with explicit retry behaviour —
// supervisors polling health across analyzer restarts want a tighter
// (or much looser) schedule than the reporting default.
func DialOperatorRetry(addr string, rc RetryConfig) (*Client, error) {
	return dialHello(addr, wire.Hello{Version: wire.ProtocolVersion}, rc)
}

// ErrThrottled reports that the server shed the request after every
// backoff retry; the payload tier is in the wrapping message. The
// session is still healthy — the caller may retry later.
var ErrThrottled = errors.New("analyzd: throttled")

// ErrServerDraining reports the server's terminal shutdown frame: the
// subscription ended because the analyzer is draining, not because the
// connection failed.
var ErrServerDraining = errors.New("analyzd: server draining")

func dialHello(addr string, hello wire.Hello, rc RetryConfig) (*Client, error) {
	c := &Client{
		addr:  addr,
		hello: hello,
		retry: rc,
		rng:   sim.NewRand(rc.Seed ^ 0xA11A),
	}
	var err error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			c.backoff(attempt - 1)
		}
		var perm bool
		if perm, err = c.connect(); err == nil || perm {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) attempts() int {
	if c.retry.MaxAttempts < 1 {
		return 1
	}
	return c.retry.MaxAttempts
}

// backoff sleeps the capped-exponential delay for the given retry index.
func (c *Client) backoff(attempt int) {
	c.sleepFor(c.retry.Delay(c.rng, attempt))
}

func (c *Client) sleepFor(d time.Duration) {
	sleep := c.retry.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(d)
}

// connect dials and re-handshakes. The second kind of failure — the
// server actively rejecting the hello — is permanent: retrying an
// incompatible handshake only hammers the analyzer.
func (c *Client) connect() (permanent bool, err error) {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return false, fmt.Errorf("analyzd: dial: %w", err)
	}
	if err := wire.WriteJSON(conn, wire.MsgHello, c.hello); err != nil {
		conn.Close()
		return false, err
	}
	mt, payload, err := wire.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return false, fmt.Errorf("analyzd: handshake: %w", err)
	}
	if mt == wire.MsgError {
		conn.Close()
		return true, fmt.Errorf("analyzd: server rejected hello: %s", payload)
	}
	if mt != wire.MsgHelloOK {
		conn.Close()
		return true, fmt.Errorf("analyzd: unexpected handshake reply type %d", mt)
	}
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = conn
	return false, nil
}

// reconnect re-establishes the session after a transport failure.
func (c *Client) reconnect() error {
	perm, err := c.connect()
	if err != nil && !perm {
		return err
	}
	if err == nil {
		c.Redials++
	}
	return err
}

// roundTrip writes one request frame and reads frames until one is its
// answer. Frames that are not answers are classified here, once, for
// every caller: a type this client does not speak is skipped (a newer
// server may interleave frames; the reply is still coming), MsgThrottle
// honors the server's retry-after hint and returns an error wrapping
// ErrThrottled (the session is still healthy), and MsgShutdown returns
// ErrServerDraining (the session is over).
func (c *Client) roundTrip(mt wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	if err := wire.WriteFrame(c.conn, mt, payload); err != nil {
		return 0, nil, err
	}
	for {
		rt, rp, err := wire.ReadFrame(c.conn)
		switch {
		case err != nil:
			return 0, nil, err
		case rt == wire.MsgThrottle:
			var th wire.Throttle
			_ = json.Unmarshal(rp, &th) // a bare throttle still means back off
			if th.RetryAfterMs > 0 {
				c.sleepFor(time.Duration(th.RetryAfterMs) * time.Millisecond)
			}
			return 0, nil, fmt.Errorf("analyzd: %s tier shed the request: %w", th.Tier, ErrThrottled)
		case rt == wire.MsgShutdown:
			return 0, nil, ErrServerDraining
		case wire.Known(rt):
			return rt, rp, nil
		}
	}
}

// request performs one frame round trip, redialing with backoff when the
// transport fails. Server-level refusals (MsgError, MsgFence) come back
// as a reply, not an error — they are answers, not failures. A throttled
// request is retried on the same session (no redial); attempts
// exhausted, the error wraps ErrThrottled. A draining server ends the
// request at once: a redial would only hit the same refusal.
func (c *Client) request(mt wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 && !errors.Is(lastErr, ErrThrottled) {
			c.backoff(attempt - 1)
			if lastErr = c.reconnect(); lastErr != nil {
				continue
			}
		}
		rt, rp, err := c.roundTrip(mt, payload)
		if err == nil || errors.Is(err, ErrServerDraining) {
			return rt, rp, err
		}
		lastErr = err
	}
	return 0, nil, lastErr
}

// call is the one request/reply exchange behind every public method:
// encode req (nil: empty body; []byte: sent as is; else JSON), round-trip
// it with request's retry policy, turn the server's typed refusals into
// errors — MsgError into its text, MsgFence (when it is not the reply
// asked for) into *FenceError — and decode the wantType reply into out
// (nil: the reply carries nothing to decode). what names the operation
// in errors.
func (c *Client) call(what string, reqType wire.MsgType, req any, wantType wire.MsgType, out any) error {
	var body []byte
	switch r := req.(type) {
	case nil:
	case []byte:
		body = r
	default:
		var err error
		if body, err = json.Marshal(req); err != nil {
			return fmt.Errorf("analyzd: encode %s: %w", what, err)
		}
	}
	mt, payload, err := c.request(reqType, body)
	if err != nil {
		return fmt.Errorf("analyzd: %s: %w", what, err)
	}
	return decodeReply(what, mt, payload, wantType, out)
}

// decodeReply checks one answer frame against the reply type its
// request wants and decodes it.
func decodeReply(what string, mt wire.MsgType, payload []byte, wantType wire.MsgType, out any) error {
	switch {
	case mt == wantType:
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(payload, out); err != nil {
			return fmt.Errorf("analyzd: decode %s reply: %w", what, err)
		}
		return nil
	case mt == wire.MsgError:
		return fmt.Errorf("analyzd: server error: %s", payload)
	case mt == wire.MsgFence:
		var info wire.FenceInfo
		if err := json.Unmarshal(payload, &info); err != nil {
			return fmt.Errorf("analyzd: decode fence refusal: %w", err)
		}
		return &FenceError{Info: info}
	default:
		return fmt.Errorf("analyzd: unexpected reply type %d", mt)
	}
}

// push writes one frame with no reply expected, with the same
// redial-and-backoff policy as request.
func (c *Client) push(mt wire.MsgType, payload []byte) error {
	var lastErr error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			c.backoff(attempt - 1)
			if err := c.reconnect(); err != nil {
				lastErr = err
				continue
			}
		}
		if err := wire.WriteFrame(c.conn, mt, payload); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

// SendReport pushes one switch telemetry report. On transport failure it
// reconnects and re-sends this report; reports sent before the reconnect
// belong to the dead session and must be re-sent by the caller if the
// next diagnosis needs them.
func (c *Client) SendReport(rep *telemetry.Report) error {
	data, err := rep.MarshalBinary()
	if err != nil {
		return fmt.Errorf("analyzd: encode report: %w", err)
	}
	return c.push(wire.MsgReport, data)
}

// SendHostReport pushes one host-agent counter snapshot. Same transport
// contract as SendReport: a reconnect re-sends only this snapshot.
func (c *Client) SendHostReport(hr *telemetry.HostReport) error {
	data, err := hr.MarshalBinary()
	if err != nil {
		return fmt.Errorf("analyzd: encode host report: %w", err)
	}
	return c.push(wire.MsgHostReport, data)
}

// DiagnoseAt asks the analyzer for the verdict on a victim flow. atNS
// is the complaint's trigger time (0 if unknown), by which the server
// groups diagnoses into incidents; path, optional, is the switches the
// victim's path crossed (at most wire.MaxDeclaredPath), which the
// analyzer then expects reports from. Without a path the switch
// expectation is unknown and a silent path switch goes unnoticed.
func (c *Client) DiagnoseAt(victim packet.FiveTuple, atNS int64, path ...topo.NodeID) (*wire.Diagnosis, error) {
	if len(path) > wire.MaxDeclaredPath {
		return nil, fmt.Errorf("analyzd: declared path of %d switches exceeds %d", len(path), wire.MaxDeclaredPath)
	}
	var d wire.Diagnosis
	if err := c.call("diagnose", wire.MsgDiagnose, wire.EncodeDiagnoseRequest(victim, atNS, path...), wire.MsgDiagnosis, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Incidents asks the analyzer to group this session's diagnoses into
// incidents.
func (c *Client) Incidents() ([]wire.IncidentSummary, error) {
	var out []wire.IncidentSummary
	err := c.call("incidents", wire.MsgIncidents, nil, wire.MsgIncidentList, &out)
	return out, err
}

// QueryIncidents asks the fleet store for clustered incidents matching
// q. Remember q.Node: 0 is a real node, -1 is the wildcard.
func (c *Client) QueryIncidents(q wire.IncidentQuery) ([]wire.FleetIncident, error) {
	var out []wire.FleetIncident
	err := c.call("query incidents", wire.MsgQueryIncidents, q, wire.MsgIncidentMatches, &out)
	return out, err
}

// Subscribe turns this session into a live incident tail: the server
// acknowledges, then pushes MsgIncidentEvent frames as incidents open,
// grow and resolve. After Subscribe, NextEvent is the only valid call —
// use a second connection for queries. An overloaded server throttles
// subscriptions first; the request machinery backs off and retries, and
// the returned error wraps ErrThrottled when every attempt was shed.
func (c *Client) Subscribe(req wire.SubscribeRequest) error {
	return c.subscribe("subscribe", wire.MsgSubscribe, req)
}

// SubscribeRollups turns this session into a live rollup tail: the
// server acknowledges, then pushes MsgRollupEvent frames as windows
// open, update and close. After SubscribeRollups, NextRollup is the
// only valid call. Same throttling contract as Subscribe.
func (c *Client) SubscribeRollups(req wire.RollupSubscribeRequest) error {
	return c.subscribe("subscribe rollups", wire.MsgSubscribeRollups, req)
}

// subscribe sends one subscription request and, once the server has
// acknowledged it, remembers it for Resubscribe.
func (c *Client) subscribe(what string, mt wire.MsgType, req any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("analyzd: encode %s: %w", what, err)
	}
	if err := c.call(what, mt, body, wire.MsgSubscribeOK, nil); err != nil {
		return err
	}
	c.lastSubType, c.lastSubBody = mt, body
	return nil
}

// ErrNoSubscription reports a Resubscribe with nothing to restore.
var ErrNoSubscription = errors.New("analyzd: no subscription to restore")

// Resubscribe re-establishes the session's last successful
// subscription (incident or rollup) on a fresh connection, with the
// client's capped exponential backoff between attempts. It is how a
// tail survives an analyzer restart: on ErrServerDraining or a
// connection error from NextEvent/NextRollup, call Resubscribe and
// resume the event loop. Events emitted while disconnected are gone —
// the rollup/incident stores retain the summaries, so a tail that
// cares can query the gap.
func (c *Client) Resubscribe() error {
	if c.lastSubType == 0 {
		return ErrNoSubscription
	}
	var lastErr error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			c.backoff(attempt - 1)
		}
		if lastErr = c.reconnect(); lastErr != nil {
			continue
		}
		// Unlike request, a draining or throttling server is worth another
		// dial: the next attempt may land on the restarted one.
		mt, payload, err := c.roundTrip(c.lastSubType, c.lastSubBody)
		if err != nil {
			lastErr = err
			continue
		}
		return decodeReply("resubscribe", mt, payload, wire.MsgSubscribeOK, nil)
	}
	return lastErr
}

// Health asks the server for its lifecycle state and load counters.
// It works on every session kind and in every lifecycle state short of
// stopped — it is the probe a supervisor polls during drain.
func (c *Client) Health() (*wire.Health, error) {
	var h wire.Health
	if err := c.call("health", wire.MsgHealth, nil, wire.MsgHealthReply, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// ShardInfo asks the server for its cluster identity: shard name, role
// and replication watermarks. Unclustered servers answer with an empty
// shard name and zero replicas.
func (c *Client) ShardInfo() (*wire.ShardInfo, error) {
	var info wire.ShardInfo
	if err := c.call("shard info", wire.MsgShardInfo, nil, wire.MsgShardInfoReply, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// QueryRollups asks the analyzer's summarizer for windowed rollup
// summaries.
func (c *Client) QueryRollups(q wire.RollupQuery) (*wire.RollupResult, error) {
	var out wire.RollupResult
	if err := c.call("query rollups", wire.MsgQueryRollups, q, wire.MsgRollupList, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// tail blocks for the next pushed frame of the wanted type and decodes
// it into out. Unknown frame types from a newer server are skipped, per
// the wire package contract; MsgShutdown is the terminal event — the
// server is draining, the tail is over.
func (c *Client) tail(what string, want wire.MsgType, out any) error {
	for {
		mt, payload, err := wire.ReadFrame(c.conn)
		switch {
		case err != nil:
			return fmt.Errorf("analyzd: next %s: %w", what, err)
		case mt == want:
			if err := json.Unmarshal(payload, out); err != nil {
				return fmt.Errorf("analyzd: decode %s: %w", what, err)
			}
			return nil
		case mt == wire.MsgShutdown:
			return ErrServerDraining
		case mt == wire.MsgError:
			return fmt.Errorf("analyzd: server error: %s", payload)
		case wire.Known(mt):
			return fmt.Errorf("analyzd: unexpected frame type %d while tailing", mt)
		}
	}
}

// NextRollup blocks for the next pushed rollup event; the NextEvent
// contract (unknown frames skipped, MsgShutdown -> ErrServerDraining)
// applies.
func (c *Client) NextRollup() (*wire.RollupEvent, error) {
	var ev wire.RollupEvent
	if err := c.tail("rollup event", wire.MsgRollupEvent, &ev); err != nil {
		return nil, err
	}
	return &ev, nil
}

// NextEvent blocks for the next pushed incident event.
func (c *Client) NextEvent() (*wire.IncidentEvent, error) {
	var ev wire.IncidentEvent
	if err := c.tail("event", wire.MsgIncidentEvent, &ev); err != nil {
		return nil, err
	}
	return &ev, nil
}
