package main

import (
	"time"

	"dynamips/internal/experiments"
)

// sizes is the make-up of every workload's input. fullSize is what the
// benchmark measures; the tests use smallSize.
type sizes struct {
	// Setups is how many times an untraced run sets up; setup_s is the
	// median.
	Setups int
	// MinIters is the fewest timed passes a run makes, however short
	// its measuring time.
	MinIters int

	// Paper is the paper-batch pipeline configuration; Warm is the small
	// pass paper-batch runs as its set-up.
	Paper, Warm experiments.Config

	// CDNScale and CDNDays size the association CSV cdn-stream analyses.
	CDNScale float64
	CDNDays  int

	// ChurnSubs subscribers churn in churnRoundHours rounds in
	// bng-churn.
	ChurnSubs int
	// ServeSubs subscribers churn in 1-hour rounds in bng-serve: first
	// ServeWarmRounds untimed, then timed passes of ServeBlockRounds.
	ServeSubs        int
	ServeWarmRounds  int
	ServeBlockRounds int

	// ClientSpeedup divides the bng clients' default poll intervals.
	// ChurnReadTime is how long they poll the idle daemon after each
	// bng-churn round. The Read cycles are how many rounds of their
	// clients' reads paper-batch and cdn-stream send back to back after
	// each timed pass. Probes is how many reads no client sends the
	// traced bng-serve run times.
	ClientSpeedup                  float64
	ChurnReadTime                  time.Duration
	PaperReadCycles, CDNReadCycles int
	Probes                         int
	// Handles is how many requests each protocol server handles in the
	// traced bng-churn run.
	Handles int
}

func fullSize() sizes {
	return sizes{
		Setups:   3,
		MinIters: 1,
		Paper:    experiments.Default(),
		Warm:     experiments.Config{Hours: 5000, ProbeScale: 0.2, CDNScale: 0.1, CDNDays: 60},

		CDNScale: 1.5,
		CDNDays:  150,

		ChurnSubs: 1_000_000,

		ServeSubs:        100_000,
		ServeWarmRounds:  24,
		ServeBlockRounds: 24,

		ClientSpeedup:   20,
		PaperReadCycles: 8,
		CDNReadCycles:   50,
		ChurnReadTime:   2 * time.Second,
		Probes:          500,
		Handles:         50_000,
	}
}

func smallSize() sizes {
	return sizes{
		Setups:   2,
		MinIters: 2,
		Paper:    experiments.Config{Hours: 3000, ProbeScale: 0.1, CDNScale: 0.05, CDNDays: 60},
		Warm:     experiments.Config{Hours: 1000, ProbeScale: 0.05, CDNScale: 0.02, CDNDays: 30},

		CDNScale: 0.05,
		CDNDays:  60,

		ChurnSubs: 20_000,

		ServeSubs:        5_000,
		ServeWarmRounds:  2,
		ServeBlockRounds: 4,

		ClientSpeedup:   400,
		PaperReadCycles: 2,
		CDNReadCycles:   10,
		ChurnReadTime:   20 * time.Millisecond,
		Probes:          50,
		Handles:         2_000,
	}
}
