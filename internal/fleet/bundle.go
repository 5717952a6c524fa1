package fleet

import "polygraph/internal/bundle"

// Fleet-wide support-bundle capture: the balancer knows every replica —
// including ones already ejected or drained — so it is the natural
// place to enumerate capture targets. A member's Fetch is the target's,
// which lets an in-process rig snapshot a replica whose listener is
// gone; a plain HTTP member is captured over BaseURL and surfaces as
// recorded collector errors when the replica is dead.

// BundleTarget adapts one member for bundle.Capture.
func (m Member) BundleTarget() bundle.Target {
	return bundle.Target{Name: m.Name, BaseURL: m.BaseURL, Fetch: m.Fetch}
}

// BundleTargets enumerates every member of the balancer as a capture
// target, in membership order — the input for a fleet-wide
// bundle.Capture.
func (b *Balancer) BundleTargets() []bundle.Target {
	members := b.Members()
	out := make([]bundle.Target, len(members))
	for i, m := range members {
		out[i] = m.BundleTarget()
	}
	return out
}
