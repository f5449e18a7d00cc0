#!/usr/bin/env python3
"""Time identify, fit and estimate on one long implemented-scope design.

The design is 8 random sequences of the given horizon, each its own scope
member, with 30 units each, observed from a table consistent with the
scenario.  Identify is ``assemble`` plus ``is_identifiable``, the fit is
``feasible_rwls`` with sample weights on that restriction and the estimate
is the period-1 effect.  Prints the seconds of each step and the peak RSS
of the process.

    python scripts/long_horizon.py --horizon 400 --scenario b --k 2
"""

import argparse
import resource
import time

import numpy as np

from crossover import (
    CrossoverDesign,
    assemble,
    estimate,
    feasible_rwls,
    instantaneous_effect,
    is_identifiable,
    random_consistent_table,
    realize_dataset,
    sample_assignment,
)

SEQUENCES = 8
UNITS = 30
SEED = 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--scenario", choices=("a", "b", "c"), required=True)
    parser.add_argument("--k", type=int, default=None, help="carryover order, required under b and c")
    args = parser.parse_args()

    horizon, scenario, order = args.horizon, args.scenario, args.k
    rng = np.random.default_rng(SEED)
    words = set()
    while len(words) < SEQUENCES:
        words.add("".join(rng.choice(["A", "B"], horizon)))
    design = CrossoverDesign(horizon, {z: UNITS for z in words}, scope=words)
    table = random_consistent_table(horizon, scenario, order or 1, design.n_units, scope=words, seed=SEED)
    dataset = realize_dataset(table, sample_assignment(design, SEED))
    spec = instantaneous_effect(1, "", design.scope)

    started = time.perf_counter()
    restriction = assemble(scenario, horizon, design.scope, order)
    check = is_identifiable(design, restriction)
    identified = time.perf_counter()
    fit = feasible_rwls(dataset, scenario, order, "sample", restriction)
    fitted = time.perf_counter()
    result = estimate(fit, spec)
    done = time.perf_counter()

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"T={horizon} scenario={scenario} k={order} p={restriction.layout.size} d={restriction.dimension} {check}")
    print(f"identify {identified - started:.3f} s")
    print(f"fit      {fitted - identified:.3f} s")
    print(f"estimate {done - fitted:.3f} s")
    print(f"total    {done - started:.3f} s")
    print(f"peak RSS {peak_mb:.0f} MB")
    print(f"tau_1 {result.point[0]:.6f} (se {result.std_errors[0]:.6f})")


if __name__ == "__main__":
    main()
