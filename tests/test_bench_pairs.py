"""The summary that scripts/bench_pairs.py writes, checked on synthetic run files."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

BENCHMARK = {
    "run_seconds": 22,
    "end_to_end": [
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(checkout: Path, workload: str, seed: int, ops_per_s: float,
               op_p50_s: float, gauge_median_s: float, digest: str,
               git_sha: str = "abc", records=()) -> None:
    run = {
        "records": [{"kind": kind, "latency_s": latency, "status": status}
                    for kind, latency, status in records],
        "context": {"git_sha": git_sha, "src_sha256": f"src-{checkout.name}",
                    "python": "3.x", "nproc": 2, "cpus_allowed": "0-1"},
        "metrics": {"ops_per_s": {"value": ops_per_s}, "op_p50_s": {"value": op_p50_s}},
        "gauge_s": {"readings": 9, "median": gauge_median_s},
        "run_digest": digest,
    }
    path = checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run))


def _checkouts(tmp_path):
    return {"parent": tmp_path / "parent", "change": tmp_path / "change"}


def test_summary_counts_wins_and_reads_gauge_medians(tmp_path):
    checkouts = _checkouts(tmp_path)
    parent = [(10.0, 0.020, 0.0070), (11.0, 0.030, 0.0080), (12.0, 0.010, 0.0090)]
    change = [(15.0, 0.010, 0.0075), (9.0, 0.030, 0.0085), (13.0, 0.020, 0.0095)]
    for seed, (p, c) in enumerate(zip(parent, change), start=40):
        _write_run(checkouts["parent"], "rules-reference", seed, *p, digest=f"d{seed}")
        _write_run(checkouts["change"], "rules-reference", seed, *c, digest=f"d{seed}")
    summary = _load_script().summarize(BENCHMARK, checkouts, [("rules-reference", 40, 3)])

    entry = summary["workloads"]["rules-reference"]
    assert entry["seeds"] == [40, 41, 42]
    assert entry["run_digests_equal"] is True
    ops = entry["metrics"]["ops_per_s"]
    assert ops["parent"]["runs"] == [10.0, 11.0, 12.0]
    assert ops["parent"]["median"] == 11.0 and ops["change"]["median"] == 13.0
    assert ops["change_wins"] == 2 and ops["pairs"] == 3   # 15 > 10, 13 > 12
    # lower is better; the tie in the second pair counts for neither side
    assert entry["metrics"]["op_p50_s"]["change_wins"] == 1
    gauge = entry["gauge_s"]
    assert gauge["parent"]["runs"] == [0.0070, 0.0080, 0.0090]
    assert gauge["parent"]["median"] == 0.0080
    assert gauge["change"]["median"] == 0.0085
    assert summary["parent"] == {"git_sha": "abc", "src_sha256": "src-parent"}
    assert summary["change"] == {"git_sha": "abc", "src_sha256": "src-change"}
    assert summary["command"].endswith("--seconds 22 --trace 0")


def _read(tmp_path, parent, change):
    """The readings of ten hand-written pairs of (ops_per_s, op_p50_s) runs."""
    checkouts = _checkouts(tmp_path)
    for seed, (p, c) in enumerate(zip(parent, change)):
        _write_run(checkouts["parent"], "exch-small", seed, *p, 0.008, digest="d")
        _write_run(checkouts["change"], "exch-small", seed, *c, 0.008, digest="d")
    summary = _load_script().summarize(BENCHMARK, checkouts, [("exch-small", 0, 10)])
    metrics = summary["workloads"]["exch-small"]["metrics"]
    return metrics["ops_per_s"]["reading"], metrics["op_p50_s"]["reading"]


def test_readings_gain_and_worse(tmp_path):
    # parent ops/s 20.0-20.9 (IQR 0.45); the change wins 9 of 10 pairs by about
    # +25%; its op_p50 is 30% slower than the parent's, more than the 25% bound
    parent = [(20.0 + i / 10, 0.010) for i in range(10)]
    change = [(25.0 + i / 10 if i else 19.0, 0.013) for i in range(10)]
    assert _read(tmp_path, parent, change) == ("gain", "worse")


def test_a_gain_needs_nine_wins_in_ten_and_more_than_the_parents_iqr(tmp_path):
    parent = [(20.0 + i / 10, 0.010) for i in range(10)]
    eight_wins = [(25.0 + i / 10 if i > 1 else 19.0, 0.0101) for i in range(10)]
    assert _read(tmp_path / "a", parent, eight_wins) == ("within bound", "within bound")
    # ten wins by 0.4 ops/s, within the parent's IQR of 0.45
    small = [(20.4 + i / 10, 0.010) for i in range(10)]
    assert _read(tmp_path / "b", parent, small) == ("within bound", "within bound")


def test_readings_unresolved_and_within_bound(tmp_path):
    # parent ops/s spread 10-30 (IQR 10, half its median of 20, wider than the
    # bound); op_p50 tight on both sides, 5% slower
    parent = [(10.0 + 20 * (i % 2) + i / 10, 0.0100) for i in range(10)]
    change = [(20.0 + i / 10, 0.0105) for i in range(10)]
    assert _read(tmp_path, parent, change) == ("unresolved", "within bound")


def test_summary_flags_digest_mismatches_and_mixed_sources(tmp_path):
    checkouts = _checkouts(tmp_path)
    for seed in (1, 2):
        _write_run(checkouts["parent"], "exch-small", seed, 10.0, 0.1, 0.0075, "same")
        _write_run(checkouts["change"], "exch-small", seed, 10.0, 0.1, 0.0075,
                   "same" if seed == 1 else "other")
    script = _load_script()
    summary = script.summarize(BENCHMARK, checkouts, [("exch-small", 1, 2)])
    assert summary["workloads"]["exch-small"]["run_digests_equal"] is False

    _write_run(checkouts["change"], "exch-small", 2, 10.0, 0.1, 0.0075, "same",
               git_sha="def")
    with pytest.raises(SystemExit, match="different sources"):
        script.summarize(BENCHMARK, checkouts, [("exch-small", 1, 2)])


def test_summary_gives_each_op_kinds_median_latency_per_side(tmp_path):
    checkouts = _checkouts(tmp_path)
    # (kind, latency_s, status) per run; "rare" is missing from one parent run
    # and a failed op's latency is not counted
    parent = [[("fast", 0.010, "ok"), ("fast", 0.030, "ok"), ("slow", 0.080, "ok"),
               ("rare", 0.5, "ok")],
              [("fast", 0.012, "ok"), ("slow", 0.090, "ok"), ("slow", 9.0, "timeout")]]
    change = [[("fast", 0.011, "ok"), ("slow", 0.050, "ok"), ("rare", 0.4, "ok")],
              [("fast", 0.013, "ok"), ("slow", 0.060, "ok"), ("rare", 0.4, "ok")]]
    for seed, (p, c) in enumerate(zip(parent, change), start=7):
        _write_run(checkouts["parent"], "rules-reference", seed, 10.0, 0.02, 0.008,
                   digest="d", records=p)
        _write_run(checkouts["change"], "rules-reference", seed, 12.0, 0.02, 0.008,
                   digest="d", records=c)
    summary = _load_script().summarize(BENCHMARK, checkouts, [("rules-reference", 7, 2)])

    kinds = summary["workloads"]["rules-reference"]["op_kind_p50_s"]
    assert sorted(kinds) == ["fast", "slow"]
    assert kinds["fast"]["parent"]["runs"] == [0.020, 0.012]   # median of 0.010, 0.030
    assert kinds["slow"]["parent"]["runs"] == [0.080, 0.090]
    assert kinds["slow"]["change"]["runs"] == [0.050, 0.060]
    assert kinds["slow"]["change"]["median"] == pytest.approx(0.055)


def test_both_sides_run_with_the_same_bytecode_setting(tmp_path, monkeypatch, capsys):
    # each side gets a pycache prefix of its own, fresh and kept for all its
    # runs, whatever bytecode setting the caller's environment holds
    script = _load_script()
    checkouts = _checkouts(tmp_path)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "callers-cache"))
    envs = {"parent": [], "change": []}
    end_to_end = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_run(command, cwd, env, **kwargs):
        side = Path(cwd).name
        envs[side].append(env)
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        assert not prefix.exists() or len(envs[side]) > 1
        prefix.mkdir(parents=True, exist_ok=True)
        seed = int(command[command.index("--seed") + 1])
        _write_run(Path(cwd), "exch-small", seed, 10.0, 0.1, 0.0075, "same")
        path = Path(cwd) / ".perfbench" / f"exch-small-seed{seed}-trace0.json"
        run = json.loads(path.read_text())
        run["metrics"] = {spec["name"]: {"value": 1.0} for spec in end_to_end}
        path.write_text(json.dumps(run))

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    out = tmp_path / "summary.json"
    assert script.main(["--parent", str(checkouts["parent"]), "--change",
                        str(checkouts["change"]), "--out", str(out),
                        "--workload", "exch-small:5:2"]) == 0
    prefixes = {side: {env["PYTHONPYCACHEPREFIX"] for env in envs[side]} for side in envs}
    assert all(len(envs[side]) == 2 and len(prefixes[side]) == 1 for side in envs)
    assert prefixes["parent"] != prefixes["change"]
    assert str(tmp_path / "callers-cache") not in prefixes["parent"] | prefixes["change"]
    assert not any("PYTHONDONTWRITEBYTECODE" in env for side in envs for env in envs[side])
    assert not any(Path(prefix).exists() for prefix in prefixes["parent"] | prefixes["change"])
    assert json.loads(out.read_text())["bytecode"] == script.BYTECODE
    # every metric's reading is printed with its line
    assert "exch-small       ops_per_s    1 (IQR 0) -> 1 (IQR 0), change won 0/2: within bound" \
        in capsys.readouterr().out
