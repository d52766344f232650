package exp

// DrivePoint exposes the sweep points' adapter onto the shared run
// driver to the cross-layer parity test (package exp_test).
var DrivePoint = Options.drive
