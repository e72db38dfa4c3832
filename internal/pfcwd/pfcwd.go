// Package pfcwd implements a PFC storm watchdog in the style of the ones
// shipping in commodity switch OSes (SONiC's pfcwd, Arista's PFC watchdog):
// an egress queue continuously paused beyond a detection time is declared
// stormed, its packets are discarded — queued and arriving — until the
// pause clears for a restoration time.
//
// The watchdog is the mitigation the paper positions Hawkeye against
// (§2.2): dropping lossless traffic breaks a pause storm or deadlock and
// restores the fabric, but it destroys the RDMA lossless guarantee for
// the affected queues and reveals nothing about WHY the pause persisted.
// Hawkeye's provenance answers the why; this package exists so the
// repository can demonstrate both halves of that comparison.
package pfcwd

import (
	"fmt"

	"hawkeye/internal/device"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
)

// Config tunes the watchdog timers. Production defaults are hundreds of
// milliseconds; the simulator's pause storms develop in microseconds, so
// the defaults here are scaled to the fabric's timescales while keeping
// the production ordering Interval < DetectionTime <= RestorationTime.
type Config struct {
	// Interval is the polling period of the watchdog loop.
	Interval sim.Time
	// DetectionTime is how long an egress queue must stay continuously
	// paused before the watchdog declares a storm.
	DetectionTime sim.Time
	// RestorationTime is how long the queue must stay unpaused before the
	// watchdog stops discarding and restores lossless service.
	RestorationTime sim.Time
	// Class is the lossless class the watchdog protects.
	Class uint8
}

// DefaultConfig returns timers scaled for the simulated fabric (100 Gbps,
// ~335 µs pause quanta): detection after ~3 full pause refreshes.
func DefaultConfig() Config {
	return Config{
		Interval:        100 * sim.Microsecond,
		DetectionTime:   1 * sim.Millisecond,
		RestorationTime: 400 * sim.Microsecond,
		Class:           packet.ClassLossless,
	}
}

// Validate checks the timer ordering.
func (c Config) Validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("pfcwd: non-positive interval %v", c.Interval)
	}
	if c.DetectionTime < c.Interval {
		return fmt.Errorf("pfcwd: detection time %v below poll interval %v", c.DetectionTime, c.Interval)
	}
	if c.RestorationTime < c.Interval {
		return fmt.Errorf("pfcwd: restoration time %v below poll interval %v", c.RestorationTime, c.Interval)
	}
	return nil
}

// Stats counts watchdog activity.
type Stats struct {
	// Storms is the number of storm declarations (per port event, not per
	// packet).
	Storms int
	// Restores is the number of queues returned to lossless service.
	Restores int
	// DroppedQueued is the number of packets flushed from stormed queues
	// at declaration time (arriving packets dropped during a storm are
	// counted by the switch's WatchdogDrops).
	DroppedQueued int
}

// Watchdog polls one switch's egress queues for persistent pause.
type Watchdog struct {
	sw  *device.Switch
	eng *sim.Engine
	cfg Config

	pausedFor []sim.Time // consecutive observed pause time per port
	clearFor  []sim.Time // consecutive observed unpaused time, while stormed
	stormed   []bool

	stats Stats

	// OnStorm, if set, observes each storm declaration.
	OnStorm func(port int, now sim.Time)
	// OnRestore, if set, observes each restoration.
	OnRestore func(port int, now sim.Time)
}

// Attach installs a watchdog on the switch and starts its polling loop on
// the engine. One watchdog covers all ports of the switch.
func Attach(eng *sim.Engine, sw *device.Switch, cfg Config) (*Watchdog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := sw.NumPorts()
	w := &Watchdog{
		sw:        sw,
		eng:       eng,
		cfg:       cfg,
		pausedFor: make([]sim.Time, n),
		clearFor:  make([]sim.Time, n),
		stormed:   make([]bool, n),
	}
	eng.After(cfg.Interval, w.poll)
	return w, nil
}

// Stats returns the activity counters.
func (w *Watchdog) Stats() Stats { return w.stats }

// Stormed reports whether a port is currently under storm mitigation.
func (w *Watchdog) Stormed(port int) bool { return w.stormed[port] }

func (w *Watchdog) poll() {
	now := w.eng.Now()
	for p := 0; p < w.sw.NumPorts(); p++ {
		eg := w.sw.EgressAt(p)
		paused := eg.Paused(w.cfg.Class)
		if w.stormed[p] {
			if paused {
				w.clearFor[p] = 0
				continue
			}
			w.clearFor[p] += w.cfg.Interval
			if w.clearFor[p] >= w.cfg.RestorationTime {
				w.restore(p)
				if w.OnRestore != nil {
					w.OnRestore(p, now)
				}
			}
			continue
		}
		if !paused {
			w.pausedFor[p] = 0
			continue
		}
		w.pausedFor[p] += w.cfg.Interval
		if w.pausedFor[p] >= w.cfg.DetectionTime {
			w.storm(p)
			if w.OnStorm != nil {
				w.OnStorm(p, now)
			}
		}
	}
	w.eng.After(w.cfg.Interval, w.poll)
}

// storm declares (port, class) stormed: flush the queue, discard arrivals.
func (w *Watchdog) storm(port int) {
	w.stormed[port] = true
	w.clearFor[port] = 0
	w.stats.Storms++
	w.stats.DroppedQueued += w.sw.DropQueued(port, w.cfg.Class)
	w.sw.SetWatchdogDrop(port, w.cfg.Class, true)
}

// restore returns (port, class) to lossless service.
func (w *Watchdog) restore(port int) {
	w.stormed[port] = false
	w.pausedFor[port] = 0
	w.stats.Restores++
	w.sw.SetWatchdogDrop(port, w.cfg.Class, false)
}
