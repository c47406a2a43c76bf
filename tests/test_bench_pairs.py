"""The alternating-pairs runner's parsing and verdict, on fixed inputs.

``tools/bench_pairs.py`` is loaded by path; nothing here starts a
benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PAIRS_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN_OUTPUT = """env seed 1 (starts of reference seed 1) commit abc
trial 0 (1.254 s wall, 0.752 s in kernel calls): bdca-qi 200 it MaxIters phi 15.0182 | dca 1210 it TargetReached phi 15.0162
trial 1 (0.897 s wall, 0.521 s in kernel calls): bdca-qi 15 it NumericalFailure phi 19.9519
reference trial 0: match
reference trial 1: drift: dca iterations 32 -> 34 (+2)
reference drift: 1 of 2 trials
metric step_ms_p50 = 0.0725 ms (lower is better)
""" + json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"step_ms_p50": {"value": 0.0725, "unit": "ms"}}})


def test_strip_wall_times(pairs):
    line = ("trial 2 (0.044 s wall, 0.023 s in kernel calls): "
            "bdca-qi 15 it NumericalFailure phi 19.9519")
    assert pairs.strip_wall_times(line) == "trial 2: bdca-qi 15 it NumericalFailure phi 19.9519"
    assert pairs.strip_wall_times("reference trial 0: match") == "reference trial 0: match"


def test_outcome_lines_ignore_times_only(pairs):
    lines = pairs.outcome_lines(RUN_OUTPUT)
    assert lines == [
        "trial 0: bdca-qi 200 it MaxIters phi 15.0182 | dca 1210 it TargetReached phi 15.0162",
        "trial 1: bdca-qi 15 it NumericalFailure phi 19.9519",
        "reference trial 0: match",
        "reference trial 1: drift: dca iterations 32 -> 34 (+2)",
    ]
    slower = RUN_OUTPUT.replace("(1.254 s wall, 0.752", "(2.5 s wall, 1.1")
    assert pairs.outcome_lines(slower) == lines
    moved = RUN_OUTPUT.replace("phi 15.0182", "phi 15.0183")
    assert pairs.outcome_lines(moved) != lines


def test_last_json(pairs):
    parsed = pairs.last_json(RUN_OUTPUT + "\n")
    assert parsed["correct"] is True
    assert parsed["metrics"]["step_ms_p50"]["value"] == 0.0725


def test_parse_seeds(pairs):
    assert pairs.parse_seeds("1-10") == list(range(1, 11))
    assert pairs.parse_seeds("3") == [3]
    assert pairs.parse_seeds("1,4,7-9") == [1, 4, 7, 8, 9]


PARENT = [0.100, 0.098, 0.101, 0.099, 0.102, 0.100, 0.097, 0.101, 0.099, 0.100]


def test_quartiles(pairs):
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_verdict_holds_for_a_clear_gain(pairs):
    change = [v - 0.010 for v in PARENT]
    result = pairs.verdict(PARENT, change, "lower")
    assert result["wins"] == 10 and result["pairs"] == 10
    assert result["gap"] == pytest.approx(0.010)
    assert result["iqr"] == pytest.approx(0.00175)
    assert result["holds"]


def test_verdict_needs_nine_tenths_of_the_pairs(pairs):
    # eight pairs won by far, two lost: the gap is wide but the wins fall short
    change = [v - 0.010 for v in PARENT[:8]] + [v + 0.001 for v in PARENT[8:]]
    result = pairs.verdict(PARENT, change, "lower")
    assert result["wins"] == 8
    assert result["gap"] > result["iqr"]
    assert not result["holds"]


def test_verdict_needs_a_gap_beyond_the_parent_iqr(pairs):
    # every pair won, by less than the parent's own spread
    change = [v - 0.0005 for v in PARENT]
    result = pairs.verdict(PARENT, change, "lower")
    assert result["wins"] == 10
    assert not result["holds"]


def test_verdict_ties_count_for_neither(pairs):
    change = list(PARENT)
    change[0] -= 0.02
    result = pairs.verdict(PARENT, change, "lower")
    assert result["wins"] == 1
    assert result["gap"] < result["iqr"]
    assert not result["holds"]


def test_verdict_higher_is_better(pairs):
    higher = [v + 0.010 for v in PARENT]
    assert pairs.verdict(PARENT, higher, "higher")["holds"]
    assert not pairs.verdict(PARENT, higher, "lower")["holds"]
    assert pairs.verdict(PARENT, higher, "lower")["wins"] == 0


def test_verdict_rejects_unpaired_samples(pairs):
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT[:-1], "lower")
    with pytest.raises(ValueError):
        pairs.verdict([], [], "lower")


def test_format_verdict(pairs):
    change = [v - 0.010 for v in PARENT]
    text = pairs.format_verdict("boosted_ms_per_ref_step", "ms", "lower",
                                pairs.verdict(PARENT, change, "lower"))
    assert text.splitlines()[0] == "boosted_ms_per_ref_step (ms, lower is better)"
    assert "change won 10 of 10 pairs" in text
    assert "-10.0 %" in text
    assert text.endswith("gain holds")


def test_regression_not_worse_inside_the_bound(pairs):
    # medians 0.100 -> 0.110 against a 12 % bound; the parent's IQR
    # (0.00175) is inside it
    change = [v + 0.010 for v in PARENT]
    assert pairs.regression(PARENT, change, "lower", 0.12) == "not worse"
    assert pairs.regression(PARENT, PARENT, "lower", 0.12) == "not worse"


def test_regression_worse_beyond_the_bound(pairs):
    change = [v + 0.013 for v in PARENT]
    assert pairs.regression(PARENT, change, "lower", 0.12) == "worse"
    # the same slip is a gain when higher is better
    assert pairs.regression(PARENT, change, "higher", 0.12) == "not worse"
    assert pairs.regression(PARENT, [v - 0.013 for v in PARENT], "higher", 0.12) == "worse"


def test_regression_unresolved_when_the_parent_spreads(pairs):
    # the parent's IQR (0.00175) is wider than a 1 % bound (0.0010)
    same = list(PARENT)
    assert pairs.regression(PARENT, same, "lower", 0.01) == "unresolved"
    # unless every change run beats every parent run
    faster = [v - 0.006 for v in PARENT]
    assert max(faster) < min(PARENT)
    assert pairs.regression(PARENT, faster, "lower", 0.01) == "not worse"
    # a slip beyond the bound is worse whatever the spread
    assert pairs.regression(PARENT, [v + 0.002 for v in PARENT], "lower", 0.01) == "worse"


def test_differing_solves_names_trial_and_label(pairs):
    lines = pairs.outcome_lines(RUN_OUTPUT)
    assert pairs.differing_solves(lines, lines) == []
    chase_moved = pairs.outcome_lines(
        RUN_OUTPUT.replace("dca 1210 it TargetReached phi 15.0162",
                           "dca 1210 it TargetReached phi 15.0161")
        .replace("reference trial 0: match",
                 "reference trial 0: drift: dca newton_steps 2471 -> 1920 (-551)"))
    assert pairs.differing_solves(lines, chase_moved) == ["trial 0 dca",
                                                          "reference trial 0 dca"]
    boost_moved = pairs.outcome_lines(
        RUN_OUTPUT.replace("15 it NumericalFailure", "16 it NumericalFailure")
        .replace("dca iterations 32 -> 34 (+2)",
                 "bdca-qi iterations 15 -> 16 (+1); dca iterations 32 -> 34 (+2)"))
    assert pairs.differing_solves(lines, boost_moved) == ["trial 1 bdca-qi",
                                                          "reference trial 1 bdca-qi"]
    assert pairs.differing_solves(lines, lines[:-1]) == ["4 outcome lines against 3"]
    renumbered = [line.replace("trial 1:", "trial 2:") for line in lines]
    assert pairs.differing_solves(lines, renumbered) == ["trial 1", "reference trial 1"]


def test_solve_parts_keys_problems_and_caps_by_their_first_word(pairs):
    line = "trial 3: bdca-qi 200 it MaxIters phi 9.1 | dca 20000 it MaxIters phi 9.5 | " \
           "chase hit its cap | dca: audit found 1 violations, first x"
    trial, parts = pairs.solve_parts(line)
    assert trial == "trial 3"
    assert list(parts) == ["bdca-qi", "dca", "chase"]
    assert len(parts["dca"]) == 2
    assert pairs.solve_parts("reference trial 3: match") == ("reference trial 3", {})


def test_newton_step_drift_sums_each_label_over_the_reference_lines(pairs):
    lines = pairs.outcome_lines(
        RUN_OUTPUT.replace("reference trial 0: match",
                           "reference trial 0: drift: dca phi_final 15.1 -> 15.2; "
                           "dca newton_steps 2471 -> 1920 (-551)")
        .replace("dca iterations 32 -> 34 (+2)",
                 "bdca-qi newton_steps 40 -> 43 (+3); dca iterations 32 -> 34 (+2); "
                 "dca newton_steps 98 -> 90 (-8)"))
    assert pairs.newton_step_drift(lines) == {"dca": -559, "bdca-qi": 3}
    assert pairs.newton_step_drift(pairs.outcome_lines(RUN_OUTPUT)) == {}
    assert pairs.step_drift_lines(pairs.outcome_lines(RUN_OUTPUT), lines) == [
        "dca newton_steps vs reference: parent +0, change -559",
        "bdca-qi newton_steps vs reference: parent +0, change +3",
    ]


def main_on_canned_runs(pairs, tmp_path, monkeypatch, parent_output, change_output):
    """Run main on seeds 1-2 with each side printing the given output."""
    spec = {"end_to_end": [{"name": "step_ms_p50", "unit": "ms", "better": "lower",
                            "bound": 0.12}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(pairs, "run", lambda checkout, workload, seed:
                        parent_output if checkout.name == "parent" else change_output)
    return pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "matched_m20", "--seeds", "1-2"])


def with_last_line(output, **fields):
    head, last = output.rsplit("\n", 1)
    return head + "\n" + json.dumps({**json.loads(last), **fields})


def test_differing_lines_print_the_step_drift_and_fail(pairs, tmp_path, monkeypatch, capsys):
    moved = (RUN_OUTPUT.replace("phi 15.0162", "phi 15.0161")
             .replace("reference trial 0: match",
                      "reference trial 0: drift: dca newton_steps 2471 -> 1920 (-551)"))
    status = main_on_canned_runs(pairs, tmp_path, monkeypatch, RUN_OUTPUT, moved)
    out = capsys.readouterr().out
    assert status == 1
    assert out.count("  dca newton_steps vs reference: parent +0, change -551\n") == 2
    assert "trial lines differ on seeds [1, 2]" in out


def test_identical_runs_pass(pairs, tmp_path, monkeypatch, capsys):
    status = main_on_canned_runs(pairs, tmp_path, monkeypatch, RUN_OUTPUT, RUN_OUTPUT)
    out = capsys.readouterr().out
    assert status == 0
    assert "trial lines agree on all 2 seeds" in out and "correct\": false" not in out


def test_a_run_that_is_not_correct_fails(pairs, tmp_path, monkeypatch, capsys):
    wrong = with_last_line(RUN_OUTPUT, correct=False)
    status = main_on_canned_runs(pairs, tmp_path, monkeypatch, RUN_OUTPUT, wrong)
    out = capsys.readouterr().out
    assert status == 1
    assert 'change seed 1 printed "correct": false\n' in out
    assert 'change seed 2 printed "correct": false\n' in out
    assert "parent seed" not in out and "more than the parent's" not in out
    assert "trial lines agree on all 2 seeds" in out


def test_a_larger_failed_share_fails(pairs, tmp_path, monkeypatch, capsys):
    failing = with_last_line(RUN_OUTPUT, failed=1)
    status = main_on_canned_runs(pairs, tmp_path, monkeypatch, RUN_OUTPUT, failing)
    out = capsys.readouterr().out
    assert status == 1
    assert "change failed 2/4 trials, more than the parent's 0/4\n" in out
    assert "printed \"correct\": false" not in out


def test_fault_lines_compare_shares_not_counts(pairs):
    def runs(parent, change):
        return {side: [(seed, {"correct": True, "failed": failed, "attempted": tried})
                       for seed, (failed, tried) in enumerate(counts, start=1)]
                for side, counts in (("parent", parent), ("change", change))}

    # 2 of 8 is no larger a share than 1 of 4, nor is anything of nothing
    assert pairs.fault_lines(runs([(1, 4)], [(1, 4), (1, 4)])) == []
    assert pairs.fault_lines(runs([(0, 0)], [(0, 0)])) == []
    assert pairs.fault_lines(runs([(1, 4)], [(1, 3)])) == [
        "change failed 1/3 trials, more than the parent's 1/4"]
    # fewer failures on the change's side are not a fault
    assert pairs.fault_lines(runs([(2, 4)], [(0, 4)])) == []


def test_solve_change_tells_counts_from_phi(pairs):
    solve = "dca 712 it TargetReached phi 15.0162"
    assert pairs.solve_change([solve], [solve.replace("712", "711")]) == "iterations 712 -> 711"
    assert pairs.solve_change([solve], [solve.replace("15.0162", "15.0161")]) == "phi only"
    assert (pairs.solve_change([solve], ["dca 20000 it MaxIters phi 15.1"])
            == "iterations 712 -> 20000, status TargetReached -> MaxIters")
    audit = "dca: audit found 1 violations, first x"
    assert pairs.solve_change([solve], [solve, audit]) == "other"
    assert pairs.solve_change([solve], []) == "other"


def test_solve_changes_cover_trial_lines_only(pairs):
    lines = pairs.outcome_lines(RUN_OUTPUT)
    moved = pairs.outcome_lines(
        RUN_OUTPUT.replace("phi 15.0162", "phi 15.0161")
        .replace("15 it NumericalFailure", "16 it NumericalFailure")
        .replace("reference trial 0: match",
                 "reference trial 0: drift: dca newton_steps 2471 -> 1920 (-551)"))
    changes = pairs.solve_changes(lines, moved)
    assert changes == [("dca", "phi only", "trial 0 dca: phi only"),
                       ("bdca-qi", "iterations or status",
                        "trial 1 bdca-qi: iterations 15 -> 16")]
    assert pairs.change_count_lines(changes + changes[:1]) == [
        "dca: 2 phi only", "bdca-qi: 1 iterations or status"]
    assert pairs.solve_changes(lines, lines[:-1]) == []


def test_differing_lines_say_what_changed_per_solve_and_label(pairs, tmp_path, monkeypatch,
                                                              capsys):
    moved = (RUN_OUTPUT.replace("phi 15.0162", "phi 15.0161")
             .replace("bdca-qi 15 it", "bdca-qi 14 it"))
    status = main_on_canned_runs(pairs, tmp_path, monkeypatch, RUN_OUTPUT, moved)
    out = capsys.readouterr().out
    assert status == 1
    assert out.count("  trial 0 dca: phi only\n") == 2
    assert out.count("  trial 1 bdca-qi: iterations 15 -> 14\n") == 2
    assert out.endswith("trial lines differ on seeds [1, 2]\n"
                        "  differing trial solves, dca: 2 phi only\n"
                        "  differing trial solves, bdca-qi: 2 iterations or status\n")


def test_failure_counts_per_label_and_capped_chases(pairs):
    lines = pairs.outcome_lines(RUN_OUTPUT) + [
        "trial 2: bdca-qi 3 it LineSearchFailure phi 2 | dca 300 it MaxIters phi 3 | "
        "chase hit its cap",
        "trial 3: bdca-qi 200 it MaxIters phi 9 | dca 9 it NumericalFailure phi 9 | "
        "chase hit its cap",
        "reference trial 3: drift: bdca-qi status MaxIters -> NumericalFailure"]
    # perfbench prints "chase hit its cap" for every chase that misses its
    # target; trial 3's dca stopped at iteration 9, short of its cap
    failing, capped, short = pairs.failure_counts(lines)
    assert failing == {"bdca-qi": 2, "dca": 1} and capped == 1 and short == 1
    assert pairs.failure_counts(pairs.outcome_lines(RUN_OUTPUT)) == ({"bdca-qi": 1}, 0, 0)
    assert pairs.failure_count_lines(pairs.outcome_lines(RUN_OUTPUT), lines) == [
        "bdca-qi failing statuses: parent 1, change 2",
        "dca failing statuses: parent 0, change 1",
        "chases that hit their cap: parent 0, change 1",
        "chases that stopped short of the target: parent 0, change 1"]


def test_failure_counts_are_printed_summed_over_the_seeds(pairs, tmp_path, monkeypatch,
                                                           capsys):
    assert main_on_canned_runs(pairs, tmp_path, monkeypatch, RUN_OUTPUT, RUN_OUTPUT) == 0
    out = capsys.readouterr().out
    assert ("summed over the 2 seeds' trial lines:\n"
            "  bdca-qi failing statuses: parent 2, change 2\n"
            "  chases that hit their cap: parent 0, change 0\n"
            "  chases that stopped short of the target: parent 0, change 0\n") in out


def test_report_only_medians_are_printed_without_a_verdict(pairs, tmp_path, monkeypatch,
                                                            capsys):
    def reporting(wall, failed):
        return RUN_OUTPUT.replace(
            "metric step_ms_p50", f"metric wall_s = {wall!r} s (lower is better)\n"
            f"metric failed_frac = {failed!r} ratio (lower is better)\n"
            "metric boosted_s_p50 = 9.5 s (lower is better)\nmetric step_ms_p50")

    parent, change = reporting(9.21, 0.5), reporting(8.75, 0.0)
    assert pairs.report_only_values(parent) == {"wall_s": (9.21, "s"),
                                                "failed_frac": (0.5, "ratio")}
    assert pairs.report_only_values(RUN_OUTPUT) == {}
    assert main_on_canned_runs(pairs, tmp_path, monkeypatch, parent, change) == 0
    out = capsys.readouterr().out
    assert ("report only, no verdict (medians over the seeds):\n"
            "  wall_s (s): parent 9.21, change 8.75\n"
            "  failed_frac (ratio): parent 0.5, change 0\n") in out
    assert pairs.report_only_lines({"parent": [{"wall_s": (1.0, "s")}, {"wall_s": (3.0, "s")}],
                                    "change": [{"wall_s": (2.0, "s")}, {}]}) == [
        "wall_s (s): parent 2, change 2"]


def test_src_lines_are_printed_once_per_side(pairs, tmp_path, monkeypatch, capsys):
    def counted(lines):
        return RUN_OUTPUT.replace(
            "trial 0 ", f"env src_lines {lines} (informational; not a benchmark metric)\n"
            "trial 0 ", 1)

    parent, change = counted(2906), counted(2880)
    assert pairs.src_lines(parent) == 2906 and pairs.src_lines(RUN_OUTPUT) is None
    assert main_on_canned_runs(pairs, tmp_path, monkeypatch, parent, change) == 0
    out = capsys.readouterr().out
    assert out.count("env src_lines") == 1
    assert ("report only, no verdict (medians over the seeds):\n"
            "  env src_lines: parent 2906, change 2880\n") in out
