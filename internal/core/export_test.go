package core

// Band returns the tracker's candidate set, so tests can hold it to a
// fresh collection above Floor.
func (t *ZetaTracker) Band() []BandTriplet { return t.set }

// Band returns the tracker's candidate set (see ZetaTracker.Band).
func (t *VarphiTracker) Band() []BandTriplet { return t.set }
