package core

import (
	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/portal"
	"spforest/internal/sim"
)

// SplitInfo exposes the §5.4.1 decomposition for inspection and
// visualization (the textual analogue of the paper's Figure 15).
type SplitInfo struct {
	// Regions are the base regions (overlapping on portal segments).
	Regions []*amoebot.Region
	// QPPortals lists, per region, its Q' portal ids (one or more).
	QPPortals [][]int32
	// Marks are the still-marked connector amoebots.
	Marks []int32
	// QPrimeNodes are the amoebots of the Q' portals.
	QPrimeNodes []int32
}

// SplitRegions computes the base-region decomposition the forest algorithm
// would use for the given sources (with the leader's portal as the root).
// It is a read-only inspection hook; the returned round cost is discarded.
func SplitRegions(region *amoebot.Region, sources []int32, leader int32) *SplitInfo {
	ports := portal.Compute(region, amoebot.AxisX)
	defer ports.Release() // the SplitInfo keeps no part of it
	var clock sim.Clock
	sp := splitAtQPrime(&clock, dense.Shared, ports, ports.WholeView(), sources, leader)
	info := &SplitInfo{}
	for _, br := range sp.regions {
		info.Regions = append(info.Regions, br.nodes)
		info.QPPortals = append(info.QPPortals, br.qpPortals)
	}
	for id := int32(0); id < int32(ports.Len()); id++ {
		if sp.inQP[id] {
			info.Marks = append(info.Marks, sp.marksOf[id]...)
			info.QPrimeNodes = append(info.QPrimeNodes, ports.NodesOf(id)...)
		}
	}
	return info
}
