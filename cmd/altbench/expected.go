package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// expected.json pins the outputs of the default seed: the Result counters
// of the first run of each simulator workload and the SHA-256 of the
// rendered NSFNet sweep (which does not depend on the seed). Regenerate it
// only for a change that is meant to alter simulation output.
//
//go:embed expected.json
var expectedJSON []byte

type counters struct {
	Offered     int64 `json:"offered"`
	Accepted    int64 `json:"accepted"`
	Blocked     int64 `json:"blocked"`
	Primary     int64 `json:"primary"`
	Alternate   int64 `json:"alternate"`
	CarriedHops int64 `json:"carried_hops"`
}

func countersOf(r *sim.Result) counters {
	return counters{r.Offered, r.Accepted, r.Blocked, r.PrimaryAccepted, r.AlternateAccepted, r.CarriedHopCount}
}

type expectations struct {
	Seed         int64    `json:"seed"`
	Replay       counters `json:"nsfnet-replay"`
	Metro        counters `json:"metro-stream"`
	FigureSHA256 string   `json:"nsfnet-figure-sha256"`
}

var expected = func() expectations {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("altbench: expected.json: %v", err)) // embedded at build time
	}
	return e
}()

var defaultSeed = expected.Seed
