package core

import "time"

// Relay drain and rolling restart (planned reconfiguration, ROADMAP
// item 4): DrainNode moves every stream a relay carries onto paths that
// avoid it — make-before-break, so viewers never see the move — and
// RollingRestart strings drains together into a full-fleet restart with
// zero added stalls. The Brain excludes draining relays from new path
// decisions and the relay itself refuses new subscriptions, so the
// drain converges instead of racing arriving viewers.

// drainMigrationSpacing rate-limits a drain: one (stream, subscriber)
// migration is issued per tick so the control plane never bursts a
// migration storm onto the overlay by itself.
const drainMigrationSpacing = 50 * time.Millisecond

// DrainNode starts draining an overlay node: the Brain stops routing
// new paths through it, the node refuses new subscriptions, and every
// carried stream's downstream subscribers are told to migrate onto
// paths avoiding it — rate-limited, highest-fan-out streams first. It
// returns how many migrations were scheduled (0 when the node is
// unknown, crashed, already draining, or carries nothing).
func (c *Cluster) DrainNode(id int) int {
	if id < 0 || id >= c.cfg.Sites || c.crashed[id] || c.draining[id] {
		return 0
	}
	c.draining[id] = true
	c.drainsStarted.Inc()
	c.Brain.SetDraining(id, true)
	c.Nodes[id].SetDraining(true)
	scheduled := 0
	for _, rs := range c.Nodes[id].CarriedStreams() {
		for _, dst := range rs.Subscribers {
			if dst >= clientIDBase || dst >= len(c.Nodes) {
				continue
			}
			sid, dst := rs.SID, dst
			c.Loop.AfterFunc(time.Duration(scheduled)*drainMigrationSpacing, func() {
				c.migrateOff(sid, dst, id)
			})
			scheduled++
		}
	}
	c.drainMigrations.Add(uint64(scheduled))
	return scheduled
}

// DrainRemaining reports how many (stream, subscriber) pairs still ride
// through a draining node — 0 means the drain has converged and the
// node can be taken down without touching live traffic.
func (c *Cluster) DrainRemaining(id int) int {
	if id < 0 || id >= c.cfg.Sites || c.crashed[id] {
		return 0
	}
	n := 0
	for _, rs := range c.Nodes[id].CarriedStreams() {
		n += len(rs.Subscribers)
	}
	return n
}

// UndrainNode readmits a node to path decisions (after a restart, or to
// cancel a drain).
func (c *Cluster) UndrainNode(id int) {
	if id < 0 || id >= c.cfg.Sites || !c.draining[id] {
		return
	}
	c.draining[id] = false
	c.drainsCompleted.Inc()
	c.Brain.SetDraining(id, false)
	if !c.crashed[id] {
		c.Nodes[id].SetDraining(false)
	}
}

// NodeDraining reports whether a node is currently draining.
func (c *Cluster) NodeDraining(id int) bool {
	return id >= 0 && id < len(c.draining) && c.draining[id]
}

// migrateOff asks subscriber dst to make-before-break migrate sid onto
// a path that avoids the draining node. The Brain's own draining filter
// already excludes it; the explicit check also guards memoized and
// last-resort answers.
func (c *Cluster) migrateOff(sid uint32, dst, avoid int) {
	if c.closed || dst < 0 || dst >= len(c.Nodes) || c.crashed[dst] {
		return
	}
	// A synchronous control-plane lookup, no modeled replica RTT: the
	// operator tooling talks to the Brain directly.
	paths, _ := c.Brain.Lookup(sid, dst)
	for _, p := range paths {
		if pathContains(p, avoid) {
			continue
		}
		c.Nodes[dst].Migrate(sid, p)
		return
	}
}

func pathContains(p []int, id int) bool {
	for _, h := range p {
		if h == id {
			return true
		}
	}
	return false
}

// RollingRestart schedules a drain → crash → restart → undrain cycle
// over the given nodes, one node at a time: each node drains for
// drainFor (long enough for its migrations to splice), is down for
// downFor, then rejoins and the next node starts after a short
// stabilization gap. Returns the virtual time at which the last node
// has rejoined.
func (c *Cluster) RollingRestart(ids []int, drainFor, downFor time.Duration) time.Duration {
	const stabilize = time.Second
	t := c.Loop.Now()
	for _, id := range ids {
		id := id
		start := t
		c.Loop.AfterFunc(start-c.Loop.Now(), func() { c.DrainNode(id) })
		c.Loop.AfterFunc(start+drainFor-c.Loop.Now(), func() { c.CrashNode(id) })
		c.Loop.AfterFunc(start+drainFor+downFor-c.Loop.Now(), func() {
			c.RestartNode(id)
			c.UndrainNode(id)
		})
		t = start + drainFor + downFor + stabilize
	}
	return t
}
