"""Alternating pairs of benchmark runs on two checkouts, with a verdict.

Usage (from anywhere)::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload matched_m20 --seeds 1-10

For each seed, each checkout runs its own
``perfbench/run.py --workload W --seed S --seconds 20 --trace 0``.  The
parent runs first on odd seeds and the change on even ones, so a drift in
the machine's speed favours neither side.  Each run's end-to-end metrics
come from the JSON object on the last line of its output.

The two sides must solve the same problems the same way: their ``trial``
and ``reference trial`` lines must agree once the wall times in
parentheses are stripped.  If they do not, the script names, per seed,
the solves that differ (trial and label, such as ``trial 0 dca``), says
of each differing solve of a trial line whether its iteration count or
status changed or only its printed phi (``trial 0 dca: iterations 712 ->
711``, ``trial 1 dca: phi only``), prints per label each side's
Newton-step drift against ``reference.json`` summed over the seed's
``reference trial`` lines, counts the differing trial-line solves per
label over all seeds, and exits with status 1.  Whether or not the lines
agree, it prints per label each side's failing statuses
(``NumericalFailure``, ``LineSearchFailure``) in the trial lines, summed
over the seeds, each side's chases that hit their cap (the line's ``dca``
solve ended at ``MaxIters``) and each side's chases that stopped short of
the target otherwise, so a change that moves iterates on purpose can show
that it fails no more solves.

Per metric it prints each side's median [lower quartile, upper quartile],
the pairs the change won (ties count for neither side), and whether a gain
holds: the change wins at least nine tenths of the pairs, and its median is
better than the parent's by more than the distance between the parent's
quartiles.  It also prints a no-regression verdict against the metric's
``bound``, a fraction of the parent's median: "worse" when the change's
median is worse than the parent's by more than that; otherwise
"unresolved" when the parent's interquartile range is wider than that,
unless every change run beat every parent run; otherwise "not worse".
Which direction is better, and each bound, come from the parent's
``BENCHMARK.json``.  A metric that reads "worse" also makes the exit
status 1.

It also prints each side's median of the report-only ``wall_s`` and
``failed_frac`` lines (``metric wall_s = ...``), with no verdict: their
spread across seeds is wider than any bound, but a change that moves time
out of the timed iterations, or fails more solves, shows there.  Next to
them it prints each side's ``env src_lines``, the line count of its
``src/dcboost``, once per side, so a change's size sits by its timings.

Two faults make the exit status 1 whatever the timings say, and each is
printed when it fires: a run whose last line has ``"correct": false``,
and a change whose failed trials, summed over the seeds, are a larger
share of its attempted trials than the parent's.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

SECONDS = 20
WIN_SHARE = 0.9
# " (1.254 s wall, 0.752 s in kernel calls)" in a trial line
_WALL_TIMES = re.compile(r" \([0-9.]+ s wall, [0-9.]+ s in kernel calls\)")
# "dca newton_steps 2471 -> 1920 (-551)", a drift item of a reference line
_STEP_DRIFT = re.compile(r"\S+ newton_steps \d+ -> \d+ \(([+-]\d+)\)")
# "dca 1210 it TargetReached phi 15.0162", a solve of a trial line
_SOLVE = re.compile(r"\S+ (\d+) it (\S+) phi \S+")
# what a differing trial-line solve changed; "other" is a part that is no
# solve on one side (an audit problem, a chase's cap)
PHI_ONLY, ITERATIONS_OR_STATUS, OTHER = "phi only", "iterations or status", "other"
FAILING_STATUSES = ("NumericalFailure", "LineSearchFailure")
# the part of a trial line whose chase missed its target: it hit its cap
# only when the line's dca solve ended at MaxIters, and else stopped short
UNREACHED = "chase hit its cap"
# report-only metrics whose medians are printed without a verdict, and
# their lines: "metric wall_s = 3.25 s (lower is better)"
REPORT_ONLY = ("wall_s", "failed_frac")
_METRIC = re.compile(r"metric (\S+) = (\S+) (\S+) \(")
# "env src_lines 2906 (informational; not a benchmark metric)"
_SRC_LINES = re.compile(r"^env src_lines (\d+) ", re.MULTILINE)


def parse_seeds(text):
    """Seeds from "1-10", "3" or "1,4,7-9", in the order given."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def strip_wall_times(line):
    return _WALL_TIMES.sub("", line)


def outcome_lines(output):
    """The trial and reference-trial lines of a run, without wall times."""
    return [strip_wall_times(line) for line in output.splitlines()
            if line.startswith(("trial ", "reference trial "))]


def solve_parts(line):
    """An outcome line as (its trial, {label: parts}).  A trial line's
    parts are its solves and problems, split at " | "; a reference line's
    are its drift items, split at "; " ("match" has none).  Each part is
    keyed by its first word, the solve's label."""
    trial, _, body = line.partition(": ")
    if trial.startswith("reference "):
        items = [] if body == "match" else body.removeprefix("drift: ").split("; ")
    else:
        items = body.split(" | ")
    parts = {}
    for item in items:
        parts.setdefault(item.split(" ", 1)[0].rstrip(":"), []).append(item)
    return trial, parts


def differing_parts(parent_line, change_line):
    """(trial, [(label, parent parts, change parts)]) for the labels whose
    parts differ between two outcome lines of the same trial."""
    trial, parent = solve_parts(parent_line)
    change = solve_parts(change_line)[1]
    labels = list(parent) + [label for label in change if label not in parent]
    return trial, [(label, parent.get(label, []), change.get(label, []))
                   for label in labels if parent.get(label) != change.get(label)]


def differing_solves(parent_lines, change_lines):
    """Names ("trial 0 dca", "reference trial 0 dca") of the solves whose
    outcome lines differ between the two sides, in line order."""
    if len(parent_lines) != len(change_lines):
        return [f"{len(parent_lines)} outcome lines against {len(change_lines)}"]
    names = []
    for parent_line, change_line in zip(parent_lines, change_lines):
        if parent_line == change_line:
            continue
        trial, differing = differing_parts(parent_line, change_line)
        # lines that differ where no part does still count as different
        names += [f"{trial} {label}" for label, _, _ in differing] or [trial]
    return names


def solve_change(parent_parts, change_parts):
    """What one differing solve of a trial line changed: its iteration
    count and status changes ("iterations 712 -> 711", "status MaxIters
    -> TargetReached", comma-joined when both moved), PHI_ONLY when only
    its printed phi moved, or OTHER when a side has no single solve part
    or another part differs."""
    solves = [[m.groups() for m in map(_SOLVE.fullmatch, parts) if m]
              for parts in (parent_parts, change_parts)]
    if not all(len(found) == 1 for found in solves):
        return OTHER
    (old_its, old_status), (new_its, new_status) = solves[0][0], solves[1][0]
    moved = [f"{name} {old} -> {new}" for name, old, new in
             (("iterations", old_its, new_its), ("status", old_status, new_status))
             if old != new]
    if moved:
        return ", ".join(moved)
    rest = [[part for part in parts if not _SOLVE.fullmatch(part)]
            for parts in (parent_parts, change_parts)]
    return PHI_ONLY if rest[0] == rest[1] else OTHER


def solve_changes(parent_lines, change_lines):
    """(label, kind, "trial 0 dca: phi only") per differing solve of the
    trial lines (reference lines excluded), in line order; none when the
    two sides printed different numbers of lines."""
    if len(parent_lines) != len(change_lines):
        return []
    changes = []
    for parent_line, change_line in zip(parent_lines, change_lines):
        if parent_line == change_line or not parent_line.startswith("trial "):
            continue
        trial, differing = differing_parts(parent_line, change_line)
        for label, parent, change in differing:
            text = solve_change(parent, change)
            kind = text if text in (PHI_ONLY, OTHER) else ITERATIONS_OR_STATUS
            changes.append((label, kind, f"{trial} {label}: {text}"))
    return changes


def change_count_lines(changes):
    """"dca: 1 iterations or status, 7 phi only", one line per label, from
    solve_changes' tuples gathered over the seeds."""
    counts = {}
    for label, kind, _ in changes:
        counts.setdefault(label, Counter())[kind] += 1
    return [f"{label}: " + ", ".join(f"{per_label[kind]} {kind}" for kind in
                                     (ITERATIONS_OR_STATUS, PHI_ONLY, OTHER)
                                     if per_label[kind])
            for label, per_label in counts.items()]


def failure_counts(lines):
    """(per label, the solves of the trial lines that end in a failing
    status; the chases that hit their cap; the chases that stopped short
    of the target), reference lines skipped."""
    failing, capped, short = Counter(), 0, 0
    for line in lines:
        if not line.startswith("trial "):
            continue
        parts = solve_parts(line)[1]
        statuses = {}
        for label, items in parts.items():
            for item in items:
                match = _SOLVE.fullmatch(item)
                if match:
                    statuses[label] = match.group(2)
                    if match.group(2) in FAILING_STATUSES:
                        failing[label] += 1
        if UNREACHED in parts.get("chase", []):
            at_cap = statuses.get("dca") == "MaxIters"
            capped += at_cap
            short += not at_cap
    return failing, capped, short


def failure_count_lines(parent_lines, change_lines):
    """"bdca-qi failing statuses: parent 17, change 15", one line per label
    that fails on either side, then the chases that hit their cap and
    those that stopped short of the target."""
    (parent, parent_capped, parent_short), (change, change_capped, change_short) = (
        failure_counts(parent_lines), failure_counts(change_lines))
    labels = list(parent) + [label for label in change if label not in parent]
    return ([f"{label} failing statuses: parent {parent[label]}, change {change[label]}"
             for label in labels]
            + [f"chases that hit their cap: parent {parent_capped}, change {change_capped}",
               f"chases that stopped short of the target: parent {parent_short}, "
               f"change {change_short}"])


def newton_step_drift(lines):
    """Per solve label, the Newton steps its drift items in the reference
    trial lines add up to against the stored reference (run minus stored);
    no part of a trial line has a drift item's form."""
    totals = {}
    for line in lines:
        for label, items in solve_parts(line)[1].items():
            for item in items:
                match = _STEP_DRIFT.fullmatch(item)
                if match:
                    totals[label] = totals.get(label, 0) + int(match.group(1))
    return totals


def step_drift_lines(parent_lines, change_lines):
    """"dca newton_steps vs reference: parent -551, change -1020", one
    line per label that drifts on either side."""
    parent, change = newton_step_drift(parent_lines), newton_step_drift(change_lines)
    labels = list(parent) + [label for label in change if label not in parent]
    return [f"{label} newton_steps vs reference: parent {parent.get(label, 0):+d}, "
            f"change {change.get(label, 0):+d}" for label in labels]


def report_only_values(output):
    """{name: (value, unit)} of a run's REPORT_ONLY metric lines."""
    values = {}
    for line in output.splitlines():
        match = _METRIC.match(line)
        if match and match.group(1) in REPORT_ONLY:
            values[match.group(1)] = (float(match.group(2)), match.group(3))
    return values


def report_only_lines(reported):
    """"wall_s (s): parent 4.21, change 4.05", each side's median over its
    runs, one line per REPORT_ONLY metric that both sides printed.
    ``reported`` maps "parent" and "change" to their report_only_values."""
    lines = []
    for name in REPORT_ONLY:
        values = {side: [runs[name] for runs in reported[side] if name in runs]
                  for side in ("parent", "change")}
        if values["parent"] and values["change"]:
            unit = values["parent"][0][1]
            medians = {side: statistics.median(value for value, _ in found)
                       for side, found in values.items()}
            lines.append(f"{name} ({unit}): parent {medians['parent']:.4g}, "
                         f"change {medians['change']:.4g}")
    return lines


def src_lines(output):
    """The ``env src_lines`` count a run printed, or None."""
    match = _SRC_LINES.search(output)
    return int(match.group(1)) if match else None


def last_json(output):
    return json.loads(output.strip().splitlines()[-1])


def fault_lines(runs):
    """One line per fault that refuses a change whatever its timings:
    each run that printed "correct": false, and a change whose summed
    failed/attempted exceeds the parent's.  ``runs`` maps "parent" and
    "change" to their (seed, last JSON line) pairs."""
    lines = [f'{side} seed {seed} printed "correct": false'
             for side, pairs in runs.items() for seed, parsed in pairs
             if not parsed["correct"]]
    failed = {side: sum(parsed["failed"] for _, parsed in pairs) for side, pairs in runs.items()}
    tried = {side: sum(parsed["attempted"] for _, parsed in pairs)
             for side, pairs in runs.items()}
    # the two shares compared without a division, which a side with no
    # attempted trial would make undefined
    if failed["change"] * tried["parent"] > failed["parent"] * tried["change"]:
        lines.append(f"change failed {failed['change']}/{tried['change']} trials, "
                     f"more than the parent's {failed['parent']}/{tried['parent']}")
    return lines


def quartiles(values):
    """(lower quartile, median, upper quartile), interpolated linearly."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def verdict(parent, change, better):
    """Compare paired samples of one metric; ``better`` is "lower" or "higher".

    Returns a dict with both sides' quartiles, the pairs the change won,
    the gap between the medians in the better direction, the parent's
    interquartile range and ``holds``: at least WIN_SHARE of the pairs won
    and a gap larger than that range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (p_q[1] - c_q[1])
    iqr = p_q[2] - p_q[0]
    return {"parent": p_q, "change": c_q, "wins": wins, "pairs": len(parent),
            "gap": gap, "iqr": iqr,
            "holds": wins >= WIN_SHARE * len(parent) and gap > iqr}


def regression(parent, change, better, bound):
    """"worse", "unresolved" or "not worse": the no-regression verdict on
    paired samples of one metric whose allowed slip is ``bound`` times
    the parent's median."""
    sign = 1.0 if better == "lower" else -1.0
    p_low, p_mid, p_high = quartiles(parent)
    allowed = bound * abs(p_mid)
    if sign * (quartiles(change)[1] - p_mid) > allowed:
        return "worse"
    all_beaten = all(sign * (p - c) > 0 for p in parent for c in change)
    if p_high - p_low > allowed and not all_beaten:
        return "unresolved"
    return "not worse"


def format_verdict(name, unit, better, result):
    p_low, p_mid, p_high = result["parent"]
    c_low, c_mid, c_high = result["change"]
    change = 100.0 * (c_mid - p_mid) / p_mid if p_mid else float("nan")
    spread = (f"{result['gap'] / result['iqr']:.1f}x the parent's IQR"
              if result["iqr"] > 0 else "the parent's IQR is 0")
    return (f"{name} ({unit}, {better} is better)\n"
            f"  parent {p_mid:.4g} [{p_low:.4g}, {p_high:.4g}]"
            f"  change {c_mid:.4g} [{c_low:.4g}, {c_high:.4g}]  {change:+.1f} %\n"
            f"  change won {result['wins']} of {result['pairs']} pairs;"
            f" gap {result['gap']:.4g} = {spread};"
            f" gain {'holds' if result['holds'] else 'does not hold'}")


def run(checkout, workload, seed):
    """One benchmark run in ``checkout``; returns its output."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if not done.stdout.strip():
        raise RuntimeError(f"{checkout}: seed {seed} printed nothing\n{done.stderr}")
    return done.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    samples = {side: {name: [] for name in metrics} for side in ("parent", "change")}
    runs = {side: [] for side in ("parent", "change")}
    reported = {side: [] for side in ("parent", "change")}
    lines_of_src = {}
    mismatched, changes = [], []
    every_line = {side: [] for side in ("parent", "change")}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        outputs = {side: run(getattr(args, side), args.workload, seed) for side in order}
        parsed = {side: last_json(out) for side, out in outputs.items()}
        for side in order:
            runs[side].append((seed, parsed[side]))
            reported[side].append(report_only_values(outputs[side]))
            lines_of_src.setdefault(side, src_lines(outputs[side]))
            for name in metrics:
                samples[side][name].append(parsed[side]["metrics"][name]["value"])
        lines = {side: outcome_lines(out) for side, out in outputs.items()}
        for side in order:
            every_line[side] += lines[side]
        differing = differing_solves(lines["parent"], lines["change"])
        if differing:
            mismatched.append(seed)
        print(f"seed {seed} ({order[0]} first): "
              + "; ".join(f"{side} correct {parsed[side]['correct']} "
                          f"failed {parsed[side]['failed']}/{parsed[side]['attempted']}"
                          for side in ("parent", "change"))
              + ("; TRIAL LINES DIFFER in " + ", ".join(differing) if differing else ""),
              flush=True)
        if differing:
            seed_changes = solve_changes(lines["parent"], lines["change"])
            changes += seed_changes
            for line in ([text for _, _, text in seed_changes]
                         + step_drift_lines(lines["parent"], lines["change"])):
                print("  " + line, flush=True)
        print("  " + "; ".join(f"{name} {samples['parent'][name][-1]:.4g} -> "
                               f"{samples['change'][name][-1]:.4g}" for name in metrics),
              flush=True)

    worse = []
    for name, m in metrics.items():
        parent, change = samples["parent"][name], samples["change"][name]
        print(format_verdict(name, m["unit"], m["better"], verdict(parent, change, m["better"])))
        slip = regression(parent, change, m["better"], m["bound"])
        print(f"  no regression beyond {100 * m['bound']:g} % of the parent's median: {slip}")
        if slip == "worse":
            worse.append(name)
    if worse:
        print(f"worse: {', '.join(worse)}")
    print("report only, no verdict (medians over the seeds):")
    for line in report_only_lines(reported):
        print("  " + line)
    print(f"  env src_lines: parent {lines_of_src['parent']}, change {lines_of_src['change']}")
    faults = fault_lines(runs)
    for line in faults:
        print(line)
    print(f"summed over the {len(args.seeds)} seeds' trial lines:")
    for line in failure_count_lines(every_line["parent"], every_line["change"]):
        print("  " + line)
    if mismatched:
        print(f"trial lines differ on seeds {mismatched}")
        for line in change_count_lines(changes):
            print("  differing trial solves, " + line)
    else:
        print(f"trial lines agree on all {len(args.seeds)} seeds")
    return 1 if worse or faults or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
