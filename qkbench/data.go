package main

import (
	"fmt"

	"repro/internal/dataset"
)

// Every workload draws its rows from one fixed population: the full-size
// Elliptic-shaped dataset (46,564 rows) generated with populationSeed, and
// min-max scaled into (0, 2) by a scaler fitted once on scalerRows balanced
// rows of it. The seed of a run chooses which rows are drawn, never the
// population or the scaling: with heavy-tailed features the scaler's range
// is set by the most extreme sample it sees, so a scaler refitted on each
// small draw would shift every row's angles together and with them χ and
// the cost of every simulation in the run.
const (
	populationSeed = 1
	scalerRows     = 2000
)

// population generates the population at the given width and fits its
// scaler.
func population(features int) (*dataset.Dataset, *dataset.Scaler, error) {
	full := dataset.GenerateElliptic(dataset.EllipticConfig{Features: features, Seed: populationSeed})
	sample, err := full.BalancedSubset(scalerRows, populationSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("scaler sample: %w", err)
	}
	sc, err := dataset.FitScaler(sample)
	if err != nil {
		return nil, nil, fmt.Errorf("fitting the scaler: %w", err)
	}
	return full, sc, nil
}

// drawSplit draws n balanced rows of the population with the seed, splits
// them 80/20 by class as dataset.PrepareSplit does, and scales both parts.
// It also returns the raw rows drawn, so callers can keep them apart from
// others.
func drawSplit(full *dataset.Dataset, sc *dataset.Scaler, n int, seed int64) (train, test, drawn *dataset.Dataset, err error) {
	drawn, err = full.BalancedSubset(n, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, te, err := drawn.Split(0.8, seed+1)
	if err != nil {
		return nil, nil, nil, err
	}
	if train, err = sc.Transform(tr); err != nil {
		return nil, nil, nil, err
	}
	if test, err = sc.Transform(te); err != nil {
		return nil, nil, nil, err
	}
	return train, test, drawn, nil
}
