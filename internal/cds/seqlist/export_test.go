package seqlist

// Relayouts reports how many times l has been re-laid out, for the
// external alloc pins.
func Relayouts(l *List) int { return l.relayouts }
