package sim

// ObserveBuilt adds p to the observer list without widening the union
// mask, so p hears every event an emission site builds whether or not
// anyone asked for its kind. Test-only: it is how the event-spine tests
// count wasted constructions.
func (n *Network) ObserveBuilt(p Probe) {
	n.observers = append(n.observers, observer{AllEvents, p})
}
