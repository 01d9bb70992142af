import argparse
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from heckechain import cli, eigensystems, graph, modsym, planner
from heckechain.dims import dim_cusp_forms
from heckechain.modsym import MAX_LEVEL
from heckechain.store import Store

DESCRIPTORS = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_space_reports_cuspidal_dimension(capsys):
    code, out, err = run(capsys, "space", "11", "2", "7")
    assert code == 0
    assert "cuspidal dimension 2" in out
    assert err == ""


def test_space_rejects_characteristic_dividing_level(capsys):
    code, out, err = run(capsys, "space", "11", "2", "11")
    assert code == 1
    assert "working characteristic divides level" in err
    assert out == ""


@pytest.mark.parametrize("command", ["space", "orbits"])
def test_characteristic_too_large_for_int64_is_a_domain_error(capsys, command):
    code, out, err = run(capsys, command, "11", "2", "2147483659")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_large_characteristic_within_int64_is_accepted(capsys):
    code, out, err = run(capsys, "space", "11", "2", "1000003")
    assert code == 0 and "cuspidal dimension 2" in out


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["space", "11"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_orbits_lists_eigenvalues(capsys):
    code, out, err = run(capsys, "orbits", "23", "2", "7")
    assert code == 0
    assert "23.2.0" in out
    assert "a[2]=" in out


@pytest.mark.parametrize("N, k, ell", [(96, 2, 11), (28, 4, 5), (12, 6, 5)])
def test_orbits_where_a_divisor_block_splits_later(capsys, N, k, ell):
    code, out, err = run(capsys, "orbits", str(N), str(k), str(ell))
    assert (code, err) == (0, "")
    orbits = re.findall(r"degree=(\d+) multiplicity=(\d+) semisimple=\w+ (old|new)", out)
    assert sum(int(d) * int(m) for d, m, _ in orbits) == dim_cusp_forms(N, k)
    assert "old" in [kind for *_, kind in orbits]


def test_star_involution_whose_plus_part_is_not_half_is_a_domain_error(capsys, monkeypatch):
    # With eta replaced by the identity, its plus part is the whole space.
    # `space` builds no plus part, so it still prints the dimensions.
    monkeypatch.setattr(modsym, "STAR", np.array([[1, 0, 0, 1]], dtype=np.int64))
    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    modsym.symbol_space.cache_clear()
    code, out, err = run(capsys, "space", "23", "2", "7")
    assert (code, err) == (0, "") and "cuspidal dimension 4" in out
    code, out, err = run(capsys, "orbits", "23", "2", "7")
    assert (code, out) == (1, "")
    assert err == "error: the plus part of the star involution is not half the cuspidal space\n"


def test_closed_stdout_ends_without_traceback():
    # The read end is closed before the child starts, so its first write
    # meets a closed pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("HECKECHAIN_CACHE_DIR", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "heckechain.cli", "orbits", "67", "2", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"Exception" not in proc.stderr


def test_classify_rejects_bad_index(capsys):
    code, out, err = run(capsys, "classify", "11", "2", "5", "9")
    assert code == 1
    assert "orbit index 9 out of range" in err


def test_classify_reducible(capsys):
    code, out, err = run(capsys, "classify", "11", "2", "5", "0")
    assert code == 0
    assert "Reducible" in out


def test_congruences_flagship_edge(capsys):
    code, out, err = run(capsys, "congruences", "1", "12", "11", "2", "--lmax", "13")
    assert code == 0
    assert "ell 11" in out
    assert "1.12.0 ~ 11.2.0" in out


def test_chain_finds_single_edge(capsys):
    code, out, err = run(
        capsys, "chain", "1.12.0", "11.2.0", "--lmax", "13", "--mlt-only"
    )
    assert code == 0
    assert "ell=11" in out
    assert "mlt=MLT1" in out
    assert "length 1" in out


def test_chain_rejects_malformed_label(capsys):
    code, out, err = run(capsys, "chain", "1.12", "11.2.0", "--lmax", "13")
    assert code == 1
    assert "must look like N.k.index" in err


def test_graph_report(capsys):
    code, out, err = run(capsys, "graph", "37", "2", "--lmax", "50")
    assert code == 0
    assert "connected no" in out
    assert "37.2.0" in out and "37.2.1" in out
    assert "component 2" in out


def test_mlt_edge_renders_verdicts(capsys):
    code, out, err = run(capsys, "mlt-edge", "11", "Large", "12", "2")
    assert code == 0
    assert "best MLT1" in out


def test_mlt_edge_ordinary_flag(capsys):
    code, out, err = run(
        capsys, "mlt-edge", "13", "Large", "12", "2", "--ordinary", "true", "true"
    )
    assert code == 0
    assert "best MLT2" in out


def test_good_dihedral_pair(capsys):
    code, out, err = run(capsys, "good-dihedral", "--bound", "10")
    assert code == 0
    assert "p=13" in out and "q=2521" in out


def test_good_dihedral_forbidden(capsys):
    code, out, err = run(capsys, "good-dihedral", "--bound", "10", "--forbidden", "13")
    assert code == 0
    assert "p=17" in out and "q=1801" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("good-dihedral", "--bound", "1000000"),
        ("plan", str(DESCRIPTORS / "delta.json"), "--bound", "1000000"),
        ("connect", *(str(DESCRIPTORS / f) for f in ("delta.json", "messy.json")),
         "--bound", "1000000"),
    ],
    ids=["good-dihedral", "plan", "connect"],
)
def test_protection_bound_above_ceiling_is_a_domain_error(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (1, "")
    assert err == "error: good-dihedral bound above supported ceiling 127\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("congruences", "1", "12", "11", "2"),
        ("graph", "11", "2"),
        ("chain", "1.12.0", "11.2.0"),
    ],
    ids=["congruences", "graph", "chain"],
)
def test_lmax_above_ceiling_is_refused_before_listing_primes(capsys, monkeypatch, argv):
    def refuse(bound):
        raise AssertionError(f"primes_up_to({bound}) called")

    monkeypatch.setattr(graph, "primes_up_to", refuse)
    code, out, err = run(capsys, *argv, "--lmax", str(graph.MAX_LMAX + 1))
    assert (code, out) == (1, "")
    assert err == f"error: lmax above supported ceiling {graph.MAX_LMAX}\n"
    code, out, err = run(capsys, *argv, "--lmax", "-1")
    assert (code, out) == (1, "")
    assert err == "error: lmax must not be negative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("space", MAX_LEVEL + 1, "2", "5"),
        ("orbits", MAX_LEVEL + 1, "2", "5"),
        ("graph", MAX_LEVEL + 1, "2", "--lmax", "13"),
        ("space", 2147483647, "2", "5"),
    ],
    ids=["space", "orbits", "graph", "space-2147483647"],
)
def test_level_above_ceiling_is_refused_before_building_p1(capsys, monkeypatch, argv):
    def refuse(N):
        raise AssertionError(f"P1List({N}) built")

    monkeypatch.setattr(modsym, "P1List", refuse)
    command, N, *rest = argv
    code, out, err = run(capsys, command, str(N), *rest)
    assert (code, out) == (1, "")
    assert err == f"error: level above supported bound {MAX_LEVEL}\n"


def test_plan_and_connect_from_descriptor_files(capsys, tmp_path):
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({"weight": 12, "conductor": {}}))
    messy = tmp_path / "messy.json"
    messy.write_text(json.dumps({
        "weight": 4,
        "conductor": {
            "2": {"kind": "supercuspidal", "char_order": 3, "wild": True},
            "3": {"kind": "principal-series", "char_order": 12},
        },
        "dihedral": True,
    }))

    code, out, err = run(capsys, "plan", str(delta), "--bound", "10")
    assert code == 0
    assert "final-weight-two-lift" in out

    code, out, err = run(capsys, "connect", str(delta), str(messy), "--bound", "20")
    assert code == 0
    assert "pair" in out


def test_plan_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "plan", str(tmp_path / "absent.json"), "--bound", "10")
    assert code == 1
    assert "cannot read descriptor file" in err


def test_plan_invalid_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "plan", str(bad), "--bound", "10")
    assert code == 1
    assert "is not valid JSON" in err


def test_plan_descriptor_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "plan", str(bad), "--bound", "10")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: descriptor file {bad} is not valid JSON")


def plan_delta(capsys):
    return run(capsys, "plan", str(DESCRIPTORS / "delta.json"), "--bound", "10")


def test_plan_over_move_budget_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(planner, "_MOVE_BUDGET", 0)
    code, out, err = plan_delta(capsys)
    assert (code, out) == (1, "")
    assert err == "error: planner loop exceeded move budget\n"


def test_plan_move_that_does_not_lower_the_measure_is_a_domain_error(capsys, monkeypatch):
    measure = planner.measure
    first = []

    def stuck(desc, bound):
        first.append(measure(desc, bound))
        return first[0]

    monkeypatch.setattr(planner, "measure", stuck)
    code, out, err = plan_delta(capsys)
    assert (code, out) == (1, "")
    assert err == "error: move to-parallel-weight-two failed to lower the measure\n"


def test_plan_ending_without_good_dihedral_place_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(planner, "measure", lambda desc, bound: (0,))
    code, out, err = plan_delta(capsys)
    assert (code, out) == (1, "")
    assert err == "error: safe form is missing its good-dihedral place\n"


def test_connect_with_diverging_plans_is_a_domain_error(capsys, monkeypatch):
    plan_to_safe_form = planner.plan_to_safe_form
    plans = []

    def diverging(desc, bound, **kw):
        plans.append(plan_to_safe_form(desc, bound, **kw))
        return replace(plans[-1], final=desc) if len(plans) == 2 else plans[-1]

    monkeypatch.setattr(planner, "plan_to_safe_form", diverging)
    code, out, err = run(
        capsys, "connect", *(str(DESCRIPTORS / f) for f in ("delta.json", "messy.json")),
        "--bound", "20",
    )
    assert (code, out) == (1, "")
    assert err == "error: plans reached different safe forms\n"
    assert len(plans) == 2


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, err = run(capsys, "orbits", "23", "2", "7")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


CACHE_SAMPLE = [
    ("space", "11", "2", "7"),
    ("space", "23", "2", "5"),
    ("space", "1", "12", "11"),
    ("orbits", "23", "2", "7"),
    ("orbits", "11", "2", "13"),
    ("orbits", "1", "12", "11"),
    ("congruences", "1", "12", "11", "2", "--lmax", "13"),
    ("graph", "11", "2", "--lmax", "20"),
    ("graph", "37", "2", "--lmax", "20"),
]


def test_cache_hits_render_identically(capsys, tmp_path):
    for argv in CACHE_SAMPLE:
        cold = run(capsys, "--cache-dir", str(tmp_path), *argv)
        warm = run(capsys, "--cache-dir", str(tmp_path), *argv)
        assert cold[0] == warm[0] == 0
        assert cold[1] == warm[1], f"cache output drift for {argv}"
    assert any(tmp_path.iterdir())


def test_corrupt_cache_entry_is_a_domain_error(capsys, tmp_path):
    argv = ("--cache-dir", str(tmp_path), "space", "11", "2", "7")
    assert run(capsys, *argv)[0] == 0
    (path,) = tmp_path.glob("space_*.json")
    path.write_text(path.read_text()[:30])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cache entry {path} is not valid JSON")


def cache_dir_is_a_file(tmp_path):
    (tmp_path / "cache").write_text("")
    return tmp_path / "cache"


def cache_entry_is_a_directory(tmp_path):
    (tmp_path / "space_11_2_7.json").mkdir()
    return tmp_path


def cache_entry_lacks_a_field(tmp_path):
    Store(tmp_path).put("space", {"N": 11}, 11, 2, 7)
    return tmp_path


def cache_entry_has_a_malformed_field(tmp_path):
    orbit = {"label": "a", "degree": 1, "multiplicity": 1, "semisimple": True, "old": False,
             "eigen": {"two": 1}}
    Store(tmp_path).put("orbits", {"N": 11, "k": 2, "ell": 7, "sturm": 2, "orbits": [orbit]},
                        11, 2, 7)
    return tmp_path


@pytest.mark.parametrize(
    "make_cache, command, message",
    [
        (cache_dir_is_a_file, "space", "cannot create cache directory"),
        (cache_entry_is_a_directory, "space", "cannot read cache entry"),
        (cache_entry_lacks_a_field, "space", "does not match the space payload"),
        (cache_entry_has_a_malformed_field, "orbits", "does not match the orbits payload"),
    ],
)
def test_unusable_cache_is_a_domain_error(capsys, tmp_path, make_cache, command, message):
    # Running as root, a permission-denied directory or entry cannot be made.
    cache = make_cache(tmp_path)
    code, out, err = run(capsys, "--cache-dir", str(cache), command, "11", "2", "7")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_cached_plan_renders_identically(capsys, tmp_path):
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({"weight": 12, "conductor": {}}))
    argv = ("--cache-dir", str(tmp_path), "plan", str(delta), "--bound", "10")
    cold = run(capsys, *argv)
    warm = run(capsys, *argv)
    assert cold == warm


def test_cache_dir_holds_only_entries(capsys, tmp_path):
    cache = tmp_path / "cache"
    for argv in [
        ("space", "11", "2", "7"),
        ("orbits", "23", "2", "7"),
        ("graph", "11", "2", "--lmax", "20"),
        ("plan", str(DESCRIPTORS / "delta.json"), "--bound", "10"),
    ]:
        assert run(capsys, "--cache-dir", str(cache), *argv)[0] == 0
    names = sorted(p.name for p in cache.iterdir())
    assert [n.split("_")[0] for n in names] == ["orbits", "plan", "report", "space"]
    assert all(n.endswith(".json") for n in names)


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"weight": 4, "conductor": {"3": {"kind": "principal-series", "char_order": "x"}}},
            "char_order must be an integer, got 'x'",
        ),
        ({"weight": 4, "conductor": {"5": "steinberg"}}, "must be an object, got 'steinberg'"),
        ({"weight": 4, "conductor": []}, "conductor must be an object, got []"),
        (
            {"weight": 4, "conductor": {"3": {"kind": "supercuspidal", "char_order": 2.5}}},
            "char_order must be an integer, got 2.5",
        ),
        ({"weight": 4, "conductor": {}, "dihedral": "yes"}, "dihedral must be a boolean"),
    ],
    ids=["char-order-string", "local-type-string", "conductor-list", "char-order-float",
         "dihedral-string"],
)
def test_plan_rejects_mistyped_descriptor(capsys, tmp_path, doc, message):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plan", str(path), "--bound", "10")
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed descriptor document: ")
    assert message in err


def test_good_dihedral_rejects_non_integer_forbidden_list(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["good-dihedral", "--bound", "10", "--forbidden", "x"])
    assert exc.value.code == 2
    assert "argument --forbidden" in capsys.readouterr().err


@pytest.mark.parametrize("ell", ["4", "0", "-7"])
def test_mlt_edge_rejects_non_prime_characteristic(capsys, ell):
    code, out, err = run(capsys, "mlt-edge", ell, "Large", "2", "2")
    assert (code, out) == (1, "")
    assert err == f"error: edge characteristic {ell} is not prime\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("congruences", "0", "2", "11", "2", "--lmax", "7"), "level must be a positive integer"),
        (("graph", "11", "14", "--lmax", "10"), "weight above supported bound 12"),
        (("graph", "0", "2", "--lmax", "10"), "level must be a positive integer"),
        (("chain", "0.2.0", "11.2.0", "--lmax", "13"), "level must be a positive integer"),
    ],
    ids=["congruences-level-0", "graph-weight-14", "graph-level-0", "chain-level-0"],
)
def test_level_and_weight_are_checked_before_any_characteristic(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_main_calls_share_one_parser(capsys, monkeypatch):
    built, used = [], []
    init, parse_args = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording_parse_args(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    for _ in range(2):
        assert run(capsys, "good-dihedral", "--bound", "10")[0] == 0
    assert built == []
    assert len(used) == 2 and used[0] is used[1]
