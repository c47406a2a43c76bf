"""Regenerate reference.json, the outcomes every benchmark run is compared with.

For each workload, each start seed 0..10 (``run.REFERENCE_SEEDS``; a run
wraps its ``--seed`` into this range) and each trial a run of
BENCHMARK.json's ``run_seconds`` makes, it stores every solve's iteration
count, status, ``phi_final`` to 17 digits and Newton steps.  Run it from the
repository root when a change is meant to alter iterates, and say why in
CHANGES.md::

    python3 perfbench/make_reference.py
"""

import json

import run  # pins BLAS threads before NumPy is imported

import dcboost
from dcboost import harness
from tracer import Calls


def main():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    calls = Calls(harness.run_matched_target, dcboost.solve)
    reference = {}
    for name, workload in run.WORKLOADS.items():
        _, problem = run.build_problem(workload)
        count = run.trial_count(workload, seconds)
        reference[name] = {}
        for seed in range(run.REFERENCE_SEEDS):
            trials = [run.run_trial(workload, problem, index,
                                    run.start_point(workload, seed, index, problem.m), calls)
                      for index in range(count)]
            reference[name][str(seed)] = [run.reference_entry(t) for t in trials]
            print(name, seed, [[s["iterations"] for s in run.reference_entry(t)["solves"]]
                               for t in trials], flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
