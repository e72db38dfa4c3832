package analyzd

import (
	"encoding/json"
	"errors"
	"fmt"

	"hawkeye/internal/wire"
)

// Client side of the fleet routing protocol: writer-routed record
// admission, epoch announces/probes, reshard record dumps and cutover
// commands. Fencing refusals surface as *FenceError (errors.Is
// ErrFenced) so routers can tell "re-resolve the route" apart from
// "back off and retry".

// ErrFenced matches any fencing refusal via errors.Is.
var ErrFenced = errors.New("analyzd: shard fenced")

// FenceError is the typed refusal a fenced or wrong-owner shard
// returns: the shard has been superseded by a higher epoch (Fenced),
// or the fabric has been resharded away from it (Moved).
type FenceError struct {
	Info wire.FenceInfo
}

func (e *FenceError) Error() string {
	if e.Info.Moved {
		return fmt.Sprintf("analyzd: shard %q no longer owns fabric %q (epoch %d)",
			e.Info.Shard, e.Info.Fabric, e.Info.Epoch)
	}
	return fmt.Sprintf("analyzd: shard %q fenced at epoch %d by epoch %d",
		e.Info.Shard, e.Info.Epoch, e.Info.Observed)
}

// Is makes errors.Is(err, ErrFenced) match.
func (e *FenceError) Is(target error) bool { return target == ErrFenced }

// WriteRecord routes one record to this shard with an idempotency
// sequence: the server admits it exactly once per fabric+OriginSeq and
// acks (Duplicate set when a resend hit the dedup watermark). The
// request machinery redials and resends on transport failure — safe,
// because the resend carries the same OriginSeq. A fencing or
// moved-fabric refusal returns *FenceError.
func (c *Client) WriteRecord(req wire.WriteRequest) (*wire.WriteAck, error) {
	var ack wire.WriteAck
	if err := c.call("write record", wire.MsgWriteRecord, req, wire.MsgWriteAck, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// AnnounceEpoch tells the shard a (possibly higher) epoch exists for
// it and returns the shard's resulting fence view. It doubles as the
// fencing probe: announce the promoted epoch to a revived stale
// primary and the reply proves it demoted itself.
func (c *Client) AnnounceEpoch(shard string, epoch uint64) (*wire.FenceInfo, error) {
	var info wire.FenceInfo
	if err := c.call("announce epoch", wire.MsgEpoch, wire.EpochAnnounce{Shard: shard, Epoch: epoch}, wire.MsgFence, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// QueryRecords dumps the shard's retained records for one fabric
// (trigger-time order, writer-idempotency sequences intact) — the
// reshard executor's copy source. limit <= 0 means all.
func (c *Client) QueryRecords(fabric string, limit int) ([]json.RawMessage, error) {
	var dump wire.RecordDump
	err := c.call("query records", wire.MsgQueryRecords, wire.RecordQuery{Fabric: fabric, Limit: limit}, wire.MsgRecordList, &dump)
	return dump.Records, err
}

// Cutover executes one half of a reshard move on this shard:
// wire.CutoverRelease purges the fabric behind a durable tombstone,
// wire.CutoverAdopt activates it on the new owner. Both bump and
// announce the shard's epoch and checkpoint before replying. A fenced
// shard refuses with *FenceError.
func (c *Client) Cutover(fabric, op string) (*wire.CutoverReply, error) {
	var reply wire.CutoverReply
	if err := c.call("cutover", wire.MsgCutover, wire.CutoverRequest{Fabric: fabric, Op: op}, wire.MsgCutoverOK, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}
