import dataclasses
import json

import pytest

from listcontract import cli
from listcontract.cli import main
from listcontract import ErewViolationError, LinkedForest, UncoveredCaseError, generate, Workload


def run_cli(args):
    return main(args)


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.forest"
    b = tmp_path / "b.forest"
    run_cli(["generate", "--n", "64", "--lists", "4", "--seed", "7",
             "--out", str(a)])
    run_cli(["generate", "--n", "64", "--lists", "4", "--seed", "7",
             "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_fixed_divisibility_rejected(tmp_path, capsys):
    out = tmp_path / "x.forest"
    assert run_cli(["generate", "--n", "10", "--dist", "FIXED:3", "--out",
                    str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["generate", "--n", "0"],
    ["generate", "--n", "8", "--dist", "BOGUS"],
    ["generate", "--n", "10", "--lists", "0"],
    ["sweep", "--spec", "1,2"],
    ["run", "FOREST", "--p", "0"],
    ["sweep", "--spec", "64,16,4", "--algo", "uniform,bogus"],
    ["generate", "--n", "8", "--seed", "-1"],
    ["sweep", "--spec", "64,4,8", "--seed", "-1"],
    ["sweep", "--spec", "64,16,4", "--algo", ""],
    ["sweep", "--spec", "64,16,4", "--algo", ","],
], ids=["n0", "bogus_dist", "lists0", "spec_pair", "p0", "sweep_bogus_algo", "seed_neg",
        "sweep_seed_neg", "sweep_empty_algo", "sweep_comma_algo"])
def test_bad_arguments_exit_2_with_one_error_line(args, tmp_path, capsys):
    forest = tmp_path / "w.forest"
    forest.write_text("0 1\n1 -1\n")
    args = [str(forest) if a == "FOREST" else a for a in args]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_generate_rejects_a_seed_outside_uint64(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        generate(Workload(n=8, seed=seed))


@pytest.mark.parametrize("command", [
    ["generate", "--n", "4"],
    ["run", "FOREST"],
    ["sweep", "--spec", "64,16,4"],
], ids=["generate", "run", "sweep"])
def test_unwritable_out_exits_2_with_one_error_line(command, tmp_path, capsys):
    forest = tmp_path / "w.forest"
    forest.write_text("0 1\n1 -1\n")
    out = tmp_path / "missing_dir" / "x.out"
    args = [str(forest) if a == "FOREST" else a for a in command]
    assert run_cli(args + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write ")


def test_run_maps_package_errors_to_exit_3(tmp_path, capsys, monkeypatch):
    import listcontract.cli as cli

    def refuse(*args, **kwargs):
        raise ErewViolationError("1 EREW violation(s) in phase 'x'")

    monkeypatch.setattr(cli, "list_rank", refuse)
    forest = tmp_path / "w.forest"
    forest.write_text("0 1\n1 -1\n")
    assert run_cli(["run", str(forest)]) == 3
    assert capsys.readouterr().err.startswith("ErewViolationError: ")


def test_run_reports_uncovered_case_with_snapshot(tmp_path, capsys, monkeypatch):
    import listcontract.cli as cli

    snap = {"target_row": 0, "reference_row": 1, "columns_lo": [0], "columns_hi": [1],
            "grid": [[0, 1], [2, 3]], "colors": [0, 1, 0, 1]}

    def refuse(*args, **kwargs):
        raise UncoveredCaseError("1 reference pair(s) left non-uniform", snapshot=snap)

    monkeypatch.setattr(cli, "list_rank", refuse)
    forest = tmp_path / "w.forest"
    forest.write_text("0 1\n1 -1\n")
    assert run_cli(["run", str(forest)]) == 3
    err = capsys.readouterr().err
    first, rest = err.split("\n", 1)
    assert first == "UNCOVERED_CASE: 1 reference pair(s) left non-uniform"
    assert json.loads(rest) == snap


def test_generate_single_one_list(tmp_path):
    out = tmp_path / "s.forest"
    run_cli(["generate", "--n", "100", "--dist", "SINGLE", "--out", str(out)])
    f = LinkedForest.from_text(out.read_text())
    assert f.list_count == 1 and f.longest() == 100


def test_generate_fixed_counts(tmp_path):
    out = tmp_path / "f.forest"
    run_cli(["generate", "--n", "8", "--dist", "FIXED:4", "--seed", "1",
             "--out", str(out)])
    f = LinkedForest.from_text(out.read_text())
    assert f.list_count == 2
    assert f.lengths.tolist() == [4, 4]


def test_run_uniform_with_verify(tmp_path, capsys):
    forest = tmp_path / "w.forest"
    report = tmp_path / "report.json"
    run_cli(["generate", "--n", "128", "--lists", "3", "--seed", "2",
             "--out", str(forest)])
    rc = run_cli(["run", str(forest), "--algo", "uniform", "--p", "8",
                  "--verify", "--out", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["verified"] is True
    assert data["erew_violations"] == 0
    assert data["n"] == 128
    for field in ("l", "p", "algorithm", "rounds", "total_work",
                  "passes", "survivor_counts"):
        assert field in data
    out = capsys.readouterr().out
    assert "verified: True" in out


def test_run_at_a_processor_count_past_int64_verifies(tmp_path, capsys):
    forest = tmp_path / "w.forest"
    run_cli(["generate", "--n", "64", "--lists", "4", "--dist", "FIXED:16",
             "--out", str(forest)])
    assert run_cli(["run", str(forest), "--p", str(2**63), "--verify"]) == 0
    assert "verified: True" in capsys.readouterr().out


def test_run_reports_no_degraded_pass_on_fixed_forest(tmp_path, capsys):
    forest = tmp_path / "w.forest"
    report = tmp_path / "report.json"
    run_cli(["generate", "--n", "256", "--dist", "FIXED:64", "--seed", "1",
             "--out", str(forest)])
    assert run_cli(["run", str(forest), "--p", "16", "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["passes"] >= 1 and data["degraded_passes"] == 0
    assert "degraded_passes: 0" in capsys.readouterr().out


@pytest.mark.parametrize("dist, n, p, stopped_by", [
    ("FIXED:16", 1024, 64, "threshold"),   # pass 0 crosses n / ceil(log2 l)
    ("FIXED:64", 4096, 682, "priced"),     # pass 1 would cost more than it saves
])
def test_run_reports_why_contraction_stopped(dist, n, p, stopped_by, tmp_path, capsys):
    forest = tmp_path / "w.forest"
    run_cli(["generate", "--n", str(n), "--dist", dist, "--out", str(forest)])
    assert_stopped_by(forest, p, stopped_by, tmp_path, capsys)


def test_run_reports_a_stall_once_pass_0_empties_the_array(tmp_path, capsys):
    # 93 lists of one node, which the pool takes out, and the list
    # 1 -> 0 -> 3, whose two ends sit on row 1 of the columns layout
    # and go into its middle node, which localization then pools; the
    # 94 pooled nodes stay above the threshold n / 2
    forest = tmp_path / "w.forest"
    succ = {1: 0, 0: 3}
    forest.write_text("".join(f"{v} {succ.get(v, -1)}\n" for v in range(96)))
    assert_stopped_by(forest, 8, "stalled", tmp_path, capsys)


def assert_stopped_by(forest, p, stopped_by, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_cli(["run", str(forest), "--p", str(p), "--verify", "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["stopped_by"] == stopped_by and data["verified"]
    assert f"stopped_by: {stopped_by}" in capsys.readouterr().out


def test_run_report_counts_a_pass_that_fails_to_halve(monkeypatch):
    # the columns halve on every pass, so only the survivor count shows
    # a pass that left more than half of its nodes; here pass 0 of the
    # three a single list of 4096 takes reports that it kept every node
    def kept_all(forest, p):
        run = list_rank(forest, p=p)
        run.passes[0] = dataclasses.replace(run.passes[0], survivors=run.passes[0].pre_active)
        return run
    list_rank = cli.list_rank
    monkeypatch.setattr(cli, "list_rank", kept_all)
    forest = generate(Workload(n=4096, length_distribution="SINGLE"))
    report, _, _ = cli.run_report(forest, "uniform", 64)
    assert report["passes"] == 3 and report["degraded_passes"] == 1


def test_run_sequential_unit_work_model(tmp_path, capsys):
    forest = tmp_path / "w.forest"
    run_cli(["generate", "--n", "50", "--dist", "SINGLE", "--out", str(forest)])
    rc = run_cli(["run", str(forest), "--algo", "sequential", "--verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rounds: 50" in out


def test_run_wyllie_jump_rounds(tmp_path, capsys):
    forest = tmp_path / "w.forest"
    run_cli(["generate", "--n", "64", "--dist", "FIXED:16", "--seed", "1",
             "--out", str(forest)])
    rc = run_cli(["run", str(forest), "--algo", "wyllie", "--p", "16"])
    assert rc == 0
    assert "jump_rounds: 4" in capsys.readouterr().out


def test_run_trace_emits_step_records(tmp_path, capsys):
    forest = tmp_path / "w.forest"
    run_cli(["generate", "--n", "16", "--dist", "SINGLE", "--out", str(forest)])
    rc = run_cli(["run", str(forest), "--algo", "wyllie", "--p", "4", "--trace"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    steps = [dict(f.split("=") for f in line.split()) for line in out
             if line.startswith("step=")]
    assert [int(s["step"]) for s in steps] == list(range(len(steps)))
    assert steps[0]["phase"] == "wyllie/init"
    assert (steps[0]["tasks"], steps[0]["rounds"], steps[0]["work"]) == ("16", "4", "16")
    assert f"rounds: {sum(int(s['rounds']) for s in steps)}" in out


def test_run_rejects_bad_forest(tmp_path, capsys):
    bad = tmp_path / "bad.forest"
    # a cycle, a successor out of range, successors beyond int64 either
    # way, and bytes that are not UTF-8
    for data in (b"0 1\n1 0\n", b"0 5\n1 -1\n", b"0 99999999999999999999\n1 -1\n",
                 b"0 -99999999999999999999\n1 -1\n", b"\xff\xfe"):
        bad.write_bytes(data)
        assert run_cli(["run", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot load forest: ")


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(["sweep", "--spec", "64,16,4;128,16,4",
                  "--algo", "uniform,wyllie", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,l,p,algorithm,rounds,total_work")
    assert len(lines) == 5
    assert all(row.endswith("OK") for row in lines[1:])


def test_sweep_empty_spec_header_only(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(["sweep", "--spec", "", "--algo", "uniform",
                  "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1


def test_sweep_bad_row_marked_failed_and_continues(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(["sweep", "--spec", "63,16,4;0,4,4;64,16,4", "--algo", "uniform",
                  "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert "FAILED" in lines[1]
    assert "FAILED" in lines[2]
    assert lines[3].endswith("OK")


def test_sweep_bad_p_is_one_failed_row_before_any_forest(tmp_path, monkeypatch):
    # a bad p is refused with n and l: one "-" row, and no forest is
    # built for it, where it used to fail once per algorithm
    def no_forest(*args, **kwargs):
        raise AssertionError("forest built for a bad triple")

    monkeypatch.setattr(cli, "generate", no_forest)
    out = tmp_path / "sweep.csv"
    rc = run_cli(["sweep", "--spec", "64,4,0;64,4,-3", "--algo", "uniform,wyllie",
                  "--out", str(out)])
    assert rc == 0
    assert out.read_text().strip().splitlines()[1:] == ["64,4,0,-,,,,,,FAILED",
                                                        "64,4,-3,-,,,,,,FAILED"]
