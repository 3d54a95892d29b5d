package obs

// The surface cross-checks in surfaces_test.go drive real engines and
// fleets, so they live in package obs_test (harness and fleet import
// obs); these walk the unexported metric table for them.
var (
	CheckPromFormat  = checkPromFormat
	CheckSurfaces    = checkSurfaces
	CheckFleetTotals = checkFleetTotals
)
