package topo

import (
	"slices"

	"nocout/internal/ckpt"
	"nocout/internal/noc"
	"nocout/internal/sim"
)

// Checkpoint walk of the ideal fabric: the delivery calendar (buckets of
// in-flight packets, in ascending delivery-cycle order so the encoding is
// independent of heap layout and map iteration) plus the traffic
// counters. The floorplan, delay function, and callbacks are structural.

// State walks the fabric's in-flight state; payload walks each packet's
// payload. A load needs the fabric freshly built over the donor's
// floorplan and raises no wakes (the engine re-arms the fabric wholesale
// on restore).
func (id *Ideal) State(s *ckpt.State, payload noc.PayloadWalk) {
	var ats []sim.Cycle
	if s.Loading() {
		id.due.Clear()
		clear(id.buckets)
	} else {
		ats = make([]sim.Cycle, 0, len(id.buckets))
		for at := range id.buckets {
			ats = append(ats, at)
		}
		slices.Sort(ats)
	}
	n := s.Count(len(ats))
	prev := sim.Cycle(0)
	for i := 0; i < n && s.Err() == nil; i++ {
		var b *delivBucket
		if s.Loading() {
			b = &delivBucket{}
		} else {
			b = id.buckets[ats[i]]
		}
		ckpt.Delta(s, &b.at, &prev)
		cnt := s.Count(len(b.pkts))
		if s.Loading() {
			if _, dup := id.buckets[b.at]; dup {
				s.Corrupt("duplicate delivery bucket at cycle %d", b.at)
				return
			}
			b.pkts = make([]*noc.Packet, cnt)
			id.buckets[b.at] = b
			id.due.Push(b)
		}
		for j := 0; j < cnt && s.Err() == nil; j++ {
			noc.PacketState(&b.pkts[j], s, len(id.deliver), payload)
		}
	}
	if s.Err() == nil {
		id.stats.State(s)
	}
}
