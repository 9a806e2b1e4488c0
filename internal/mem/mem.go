// Package mem models the off-die memory system: four DDR3-1667 channels
// (Table 1) reached through dedicated ports on edge routers. Each channel
// has a fixed device access latency plus a bandwidth-limited service queue,
// which is all the on-chip study needs from DRAM: a long, mostly constant
// latency and a line-rate ceiling.
package mem

import (
	"fmt"

	"nocout/internal/coherence"
	"nocout/internal/noc"
	"nocout/internal/sim"
)

// Config describes one memory channel's timing. It is plumbed through
// chip.Config (JSON key "mem") and the -mem-lat/-mem-bw CLI flags; zero
// fields take the DDR3-1667 defaults via WithDefaults.
type Config struct {
	// AccessLat is the device latency from service start to data (cycles).
	// ~45 ns at 2 GHz for DDR3-1667.
	AccessLat sim.Cycle `json:"access_lat,omitempty"`
	// LinePeriod is the minimum spacing between line transfers on the
	// channel (cycles): 64B at 12.8 GB/s and 2 GHz is 10 cycles.
	LinePeriod sim.Cycle `json:"line_period,omitempty"`
	LinkBits   int       `json:"link_bits,omitempty"`
}

// DefaultConfig returns DDR3-1667 timing at the 2 GHz core clock.
func DefaultConfig() Config {
	return Config{AccessLat: 90, LinePeriod: 10, LinkBits: 128}
}

// WithDefaults returns the config with every zero field replaced by its
// DefaultConfig value, so partially specified configs (JSON files, CLI
// flags, hand-built structs) stay valid.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.AccessLat == 0 {
		c.AccessLat = d.AccessLat
	}
	if c.LinePeriod == 0 {
		c.LinePeriod = d.LinePeriod
	}
	if c.LinkBits == 0 {
		c.LinkBits = d.LinkBits
	}
	return c
}

// Stats counts channel activity.
type Stats struct {
	Reads, Writes int64
	BusyCycles    int64 // cycles of occupied line slots (utilization)
	QueueSum      int64 // queue length integral for mean queue depth
	Samples       int64
}

// Utilization returns the fraction of sampled cycles the channel was busy.
func (s *Stats) Utilization() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.Samples)
}

// Controller is one memory channel. It receives MemRead/MemWrite messages
// and answers reads with MemData after queueing + device latency.
type Controller struct {
	Channel int
	Node    noc.NodeID

	cfg      Config
	net      noc.Network
	pool     *noc.PacketPool
	idBase   uint64
	pktSeq   uint64
	bankNode func(bank int) noc.NodeID

	inbox    sim.Queue[coherence.Msg]
	q        sim.Queue[coherence.Msg]
	nextFree sim.Cycle
	inFlight *sim.Pipe[coherence.Msg]
	lastSeen sim.Cycle // last cycle sampled (tick or lazy catch-up)

	Stats Stats
}

// NewController builds a channel controller attached at node; bankNode maps
// a requesting LLC bank id to its network node for replies. pool recycles
// the packets delivered in this node's scheduling domain into the
// controller's sends; nil gives it a private pool.
func NewController(channel int, node noc.NodeID, net noc.Network, cfg Config, pool *noc.PacketPool,
	bankNode func(bank int) noc.NodeID) *Controller {
	if cfg.AccessLat < 1 || cfg.LinePeriod < 1 {
		panic("mem: invalid channel timing")
	}
	if pool == nil {
		pool = &noc.PacketPool{}
	}
	return &Controller{
		Channel:  channel,
		Node:     node,
		cfg:      cfg,
		net:      net,
		pool:     pool,
		idBase:   noc.PacketIDBase(noc.PktTagMC, channel),
		bankNode: bankNode,
		inFlight: sim.NewPipe[coherence.Msg](fmt.Sprintf("mc%d", channel), cfg.AccessLat),
	}
}

// Deliver is the network delivery callback.
func (c *Controller) Deliver(m coherence.Msg) { c.inbox.Push(m) }

// PendingWork reports whether the channel still has queued or in-flight
// requests.
func (c *Controller) PendingWork() bool {
	return c.inbox.Len() > 0 || c.q.Len() > 0 || c.inFlight.Len() > 0
}

// BindWaker implements sim.WakeBinder: the delivery inbox, the service
// queue and the in-flight device pipeline are the channel's wake sources.
func (c *Controller) BindWaker(w sim.Waker) {
	c.inbox.SetWaker(w)
	c.q.SetWaker(w)
	c.inFlight.SetWaker(w)
}

// NextWake implements sim.Sleeper: new arrivals need a cycle immediately;
// a backlogged queue needs one when the channel frees; in-flight reads need
// one when the device latency elapses. An empty channel waits on the inbox
// (residual busy-window sampling is settled lazily by Flush/syncTo).
func (c *Controller) NextWake(now sim.Cycle) sim.Cycle {
	if c.inbox.Len() > 0 {
		return now + 1
	}
	next := sim.NeverWake
	if c.q.Len() > 0 {
		next = c.nextFree
		if next <= now {
			next = now + 1
		}
	}
	if at, ok := c.inFlight.NextAt(); ok && at < next {
		next = at
	}
	return next
}

// syncTo replays the utilization sampling for the idle cycles in
// (c.lastSeen, upto] the scheduled kernel never ticked. During those
// cycles the queues were provably unchanged (any push would have woken
// the channel), so the per-cycle samples are a closed form.
func (c *Controller) syncTo(upto sim.Cycle) {
	if upto <= c.lastSeen {
		return
	}
	k := int64(upto - c.lastSeen)
	busyUpto := c.nextFree - 1
	if busyUpto > upto {
		busyUpto = upto
	}
	if busy := int64(busyUpto - c.lastSeen); busy > 0 {
		c.Stats.BusyCycles += busy
	}
	c.Stats.QueueSum += int64(c.q.Len()) * k
	c.Stats.Samples += k
	c.lastSeen = upto
}

// Flush implements sim.Flusher: settles the lazily-sampled utilization
// counters at cycle now.
func (c *Controller) Flush(now sim.Cycle) { c.syncTo(now) }

// Tick advances the channel one cycle.
func (c *Controller) Tick(now sim.Cycle) {
	c.syncTo(now - 1)
	c.lastSeen = now
	for {
		m, ok := c.inbox.Pop()
		if !ok {
			break
		}
		switch m.Type {
		case coherence.MemRead:
			c.Stats.Reads++
			c.q.Push(m)
		case coherence.MemWrite:
			// Writes consume channel bandwidth but need no reply.
			c.Stats.Writes++
			c.q.Push(m)
		default:
			panic(fmt.Sprintf("mem: channel %d received unexpected %v", c.Channel, m.Type))
		}
	}
	// Start at most one line transfer per LinePeriod.
	if now >= c.nextFree {
		if m, ok := c.q.Pop(); ok {
			c.nextFree = now + c.cfg.LinePeriod
			if m.Type == coherence.MemRead {
				c.inFlight.Push(now, m)
			}
		}
	}
	if now < c.nextFree {
		c.Stats.BusyCycles++
	}
	c.Stats.QueueSum += int64(c.q.Len())
	c.Stats.Samples++
	// Complete reads whose device latency elapsed.
	for {
		m, ok := c.inFlight.Pop(now)
		if !ok {
			break
		}
		c.pktSeq++
		reply := coherence.Msg{
			Type: coherence.MemData, Addr: m.Addr,
			Dst: coherence.AgentDir, DstID: m.SrcID, SrcID: c.Channel,
		}
		p := c.pool.Get()
		cell, _ := p.Payload.(*coherence.Msg)
		if cell == nil {
			cell = new(coherence.Msg)
			p.Payload = cell
		}
		*cell = reply
		p.ID = c.idBase | c.pktSeq
		p.Class = reply.Type.Class()
		p.Src = c.Node
		p.Dst = c.bankNode(m.SrcID)
		p.Size = noc.FlitsFor(reply.PacketBytes(), c.cfg.LinkBits)
		c.net.Send(now, p)
	}
}
