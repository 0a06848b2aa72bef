"""End-to-end checks of the command line front end.

Commands run in-process through cli.main so stdout/stderr and exit codes
are asserted exactly as a shell would see them.
"""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from orbitlab import cli, groups


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# payloads and exit code 0


def test_orbit_count_square_lattice(capsys):
    code, doc = run_json(capsys, "orbit-count", "--space", "z2", "--radii", "1,2,5")
    assert code == 0
    assert [row["count"] for row in doc["rows"]] == [5, 13, 81]


def test_orbit_count_accepts_caret_group_spelling(capsys):
    code_a, out_a, _ = run(capsys, "orbit-count", "--group", "Z^2", "--radii", "1,2,5")
    code_b, out_b, _ = run(capsys, "orbit-count", "--space", "z2", "--radii", "1,2,5")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_orbit_count_point_is_an_alias_for_base(capsys):
    code_a, out_a, _ = run(
        capsys, "orbit-count", "--space", "moebius2", "--point", "0,0.3", "--radii", "1,2"
    )
    code_b, out_b, _ = run(
        capsys, "orbit-count", "--space", "moebius2", "--base", "0,3/10", "--radii", "1,2"
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_orbit_count_csv_projection(capsys):
    code, out, _ = run(
        capsys, "orbit-count", "--space", "z2", "--radii", "1,2,5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radius,count,exponent-so-far"
    assert lines[1] == "1,5,"
    assert len(lines) == 4


def test_word_ball_counts_and_elements(capsys):
    code, doc = run_json(capsys, "word-ball", "--group", "heisenberg", "--radius", "1", "--elements")
    assert code == 0
    assert [row["count"] for row in doc["rows"]] == [1, 5]
    assert sorted(doc["elements"]) == [[-1, 0, 0], [0, -1, 0], [0, 0, 0], [0, 1, 0], [1, 0, 0]]
    assert doc["elements"] == sorted(doc["elements"], key=json.dumps)


def test_word_ball_z3_caret_name(capsys):
    code, doc = run_json(capsys, "word-ball", "--group", "Z^3", "--radius", "2")
    assert code == 0
    assert [row["count"] for row in doc["rows"]] == [1, 7, 25]


def test_growth_fit_word_mode(capsys):
    code, doc = run_json(capsys, "growth-fit", "--group", "z2", "--radii", "16,32,64")
    assert code == 0
    assert doc["kind"] == "word"
    assert doc["counts"] == [545, 2113, 8321]
    assert doc["fitted_exponent"] == pytest.approx(2.0, abs=0.1)


def test_milnor_rows_carry_verdicts(capsys):
    code, doc = run_json(capsys, "milnor-check", "--space", "z2", "--radii", "1,2,3")
    assert code == 0
    assert doc["ok"] is True
    assert all(row["verdict"] == "holds" for row in doc["rows"])
    assert doc["pointwise_failures"] == []


def test_index_check_klein(capsys):
    code, doc = run_json(capsys, "index-check", "--space", "klein2", "--radii", "1,2")
    assert code == 0
    assert doc["index"] == 2
    assert all(row["verdict"] == "holds" for row in doc["rows"])


def test_verify_dual_schema_rows(capsys):
    code, doc = run_json(
        capsys,
        "verify-dual", "--space", "torus2", "--radii", "1,2", "--samples", "2000", "--seed", "3",
    )
    assert code == 0
    assert doc["ok"] is True
    by_quantity = {}
    for row in doc["rows"]:
        assert set(row) == {"space", "radius", "quantity", "value", "stderr", "verdict"}
        assert row["space"] == "torus2"
        by_quantity.setdefault(row["quantity"], []).append(row)
    assert {"count_r", "count_2r", "ball_volume", "lower_margin", "upper_margin"} <= set(by_quantity)
    for row in by_quantity["ball_volume"]:
        assert row["stderr"] > 0
    for row in by_quantity["lower_margin"] + by_quantity["upper_margin"]:
        assert row["verdict"] == "holds"
        assert row["value"] >= 0


def test_verify_dual_seed_changes_bytes(capsys):
    args = ("verify-dual", "--space", "torus2", "--radii", "1,2", "--samples", "2000")
    _, out_a, _ = run(capsys, *args, "--seed", "3")
    _, out_b, _ = run(capsys, *args, "--seed", "3")
    _, out_c, _ = run(capsys, *args, "--seed", "4")
    assert out_a == out_b
    assert out_a != out_c


def test_thin_set_trend_payload(capsys):
    code, doc = run_json(
        capsys,
        "thin-set", "--space", "cylinder2", "--h", "1", "--radii", "4,8", "--samples", "2000",
    )
    assert code == 0
    assert doc["per_radius_strictly_decreasing"] is True
    quantities = {row["quantity"] for row in doc["rows"]}
    assert quantities == {"thin_volume", "thin_volume_per_radius"}


def test_dirichlet_extension_closed_form(capsys):
    code, doc = run_json(
        capsys, "dirichlet", "--space", "torus2", "--point", "1/4,0", "--within", "1"
    )
    assert code == 0
    assert doc["in_cell"] is True
    assert doc["extension"]["ray_scale"] == "2"
    assert doc["extension"]["extension_sq"] == "1/16"
    assert doc["within"]["ok"] is True


def test_classify_bundled_space(capsys):
    code, doc = run_json(capsys, "classify", "--space", "cylinder2", "--dim", "2")
    assert code == 0
    assert doc["kind"] == "product"
    assert doc["reflecting_count"] == 0


def test_classify_generators_from_json(capsys):
    gens = [g.to_obj() for g in groups.builtin_deck_group("moebius2").word_generators]
    code, doc = run_json(capsys, "classify", "--generators", json.dumps(gens))
    assert code == 0
    assert doc["kind"] == "moebius"
    assert doc["reflecting_count"] == 1


def test_soul_dim(capsys):
    code, doc = run_json(capsys, "soul-dim", "--space", "moebiusxT")
    assert code == 0
    assert doc["soul_dimension"] == 2


def test_snf_inline_matrix(capsys):
    code, doc = run_json(capsys, "snf", "--matrix", "[[1,2],[3,4],[5,6]]")
    assert code == 0
    assert doc["diagonal"] == [1, 2]
    assert doc["identity_ok"] is True
    assert doc["unimodular"] is True


def test_snf_matrix_from_bare_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[2,4,4],[-6,6,12],[10,4,16]]")
    code, doc = run_json(capsys, "snf", "--matrix", str(path))
    assert code == 0
    assert doc["diagonal"] == [2, 2, 156]


def test_rank_presentation_file(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"num_generators": 3, "relations": [[2, 0, 0]]}))
    code, doc = run_json(capsys, "rank", "--presentation", str(path))
    assert code == 0
    assert doc["rank"] == 2
    assert doc["relation_diagonal"] == [2]


def test_rank_independence_of_torsion_element(capsys):
    code, doc = run_json(
        capsys,
        "rank", "--num-generators", "2", "--relations", "[[2,0]]",
        "--elements", "[[1,0],[0,1]]",
    )
    assert code == 0
    assert doc["rank"] == 1
    assert doc["independent"] is False


def test_injection_check_defaults_to_polycyclic_box(capsys):
    code, doc = run_json(capsys, "injection-check", "--group", "heisenberg", "--box", "2")
    assert code == 0
    assert doc["kind"] == "polycyclic"
    assert doc["points"] == 125
    assert doc["injective"] is True


def test_injection_check_hurewicz(capsys):
    code, doc = run_json(capsys, "injection-check", "--kind", "hurewicz", "--group", "z2", "--radius", "3")
    assert code == 0
    assert doc["abelian_count"] == 25
    assert doc["group_count"] == 25
    assert doc["injective"] is True


def test_warped_distance_translates(capsys):
    code, doc = run_json(capsys, "warped-distance", "--k", "1,2")
    assert code == 0
    ks = [row["k"] for row in doc["rows"]]
    assert ks == [1, 2]
    assert doc["rows"][0]["distance"] == pytest.approx(2 * 3.14159265, rel=0.02)


def test_warped_distance_wraps_on_compact_surface(capsys):
    code, doc = run_json(
        capsys, "warped-distance", "--from", "0,0", "--to", "0,6.283", "--space", "N"
    )
    assert code == 0
    assert doc["distance"] == pytest.approx(0.0, abs=1e-6)


def test_timings_flag_adds_elapsed(capsys):
    _, doc_plain = run_json(capsys, "soul-dim", "--space", "torus2")
    _, doc_timed = run_json(capsys, "soul-dim", "--space", "torus2", "--timings")
    assert "elapsed_seconds" not in doc_plain
    assert isinstance(doc_timed["elapsed_seconds"], float)


# ---------------------------------------------------------------------------
# verdict failures: exit code 1


def test_classify_noncommuting_fails_with_error_payload(capsys):
    code, doc = run_json(capsys, "classify", "--space", "klein2")
    assert code == 1
    assert doc["error"] == "NonCommutingGenerators"
    assert doc["kind"] is None


# ---------------------------------------------------------------------------
# usage errors: exit code 2, structured object


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit-count", "--space", "z2", "--radii", "5,2,1"),
        ("orbit-count", "--space", "z2", "--radii", "0,1"),
        ("orbit-count", "--space", "does-not-exist", "--radii", "1,2"),
        ("word-ball", "--group", "no-such-group", "--radius", "2"),
        ("growth-fit", "--radii", "1,2,4"),
        ("growth-fit", "--space", "z2", "--group", "z2", "--radii", "1,2,4"),
        ("classify", "--space", "cylinder2", "--dim", "3"),
        ("snf", "--matrix", "[[1,2],[3"),
        ("snf", "--matrix", "@/no/such/file.json"),
        ("rank", "--elements", "[[1,0]]"),
        ("thin-set", "--space", "cylinder2", "--h", "1", "--radii", "4", "--samples", "500"),
        ("verify-dual", "--space", "torus2", "--radii", "1,2", "--samples", "999"),
        ("warped-distance", "--k", "1", "--space", "N"),
        ("dirichlet", "--space", "torus2", "--point", "1/4,0,0"),
        # a zero denominator or an empty list is malformed input, not a crash
        ("orbit-count", "--space", "torus2", "--radii", "1/0"),
        ("orbit-count", "--space", "torus2", "--base", "1/0,0"),
        ("dirichlet", "--space", "torus2", "--point", "1/0,0"),
        ("dirichlet", "--space", "torus2", "--point", "1/4,0", "--within", "1/0"),
        ("thin-set", "--space", "cylinder2", "--radii", "4", "--h", "0/0"),
        ("warped-distance", "--k", ","),
        # truncating these would prove a statement about other inputs
        ("snf", "--matrix", "[[1.5]]"),
        ("snf", "--matrix", "[[true, 0]]"),
        ("rank", "--num-generators", "1", "--relations", "[[1.5]]"),
        ("rank", "--num-generators", "1", "--elements", "[[0.5]]"),
        ("rank", "--presentation", '{"num_generators": 1.5}'),
        ("rank", "--num-generators", "-1"),
        ("injection-check", "--box", "-1"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"error", "message"}
    assert doc["error"] in err


def test_csv_requested_where_none_exists(capsys):
    # errors under --format csv go to stderr only; stdout stays empty
    code, out, err = run(capsys, "milnor-check", "--space", "z2", "--radii", "1,2", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "ValueError" in err


def test_unknown_config_key_is_a_usage_error(capsys):
    code, out, _ = run(
        capsys, "soul-dim", "--space", "torus2", "--config", "wibble=3"
    )
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


# ---------------------------------------------------------------------------
# resource errors: exit code 3


def test_cap_exceeded_exits_3(capsys):
    code, out, err = run(capsys, "word-ball", "--group", "z2", "--radius", "40", "--cap", "10")
    assert code == 3
    assert json.loads(out)["error"] == "CapExceeded"
    assert "CapExceeded" in err


def test_huge_lattice_scan_exits_3_at_once(capsys):
    # a 4 * 10^10-point scan: the cap must refuse it before scanning
    start = time.perf_counter()
    code, out, err = run(capsys, "orbit-count", "--space", "torus2", "--radii", "100000")
    assert time.perf_counter() - start < 10
    assert code == 3
    assert json.loads(out)["error"] == "CapExceeded"
    assert "exceeds the cap 10000000" in err


def test_unreachable_tolerance_exits_3(capsys):
    # k=1 runs along the core and lands on grid nodes exactly, so use k=2,
    # whose geodesic leaves the core and moves under halving
    code, out, _ = run(capsys, "warped-distance", "--k", "2", "--tol", "1e-9")
    assert code == 3
    assert json.loads(out)["error"] == "ConvergenceError"


# ---------------------------------------------------------------------------
# --config plumbing


def test_config_fills_defaulted_seed(capsys):
    _, doc = run_json(
        capsys,
        "thin-set", "--space", "cylinder2", "--h", "1", "--radii", "4",
        "--samples", "2000", "--config", "seed=9",
    )
    _, doc_flag = run_json(
        capsys,
        "thin-set", "--space", "cylinder2", "--h", "1", "--radii", "4",
        "--samples", "2000", "--seed", "9",
    )
    assert doc == doc_flag


def test_explicit_flag_beats_config(capsys):
    _, doc = run_json(
        capsys,
        "thin-set", "--space", "cylinder2", "--h", "1", "--radii", "4",
        "--samples", "2000", "--seed", "5", "--config", "seed=9",
    )
    _, doc_direct = run_json(
        capsys,
        "thin-set", "--space", "cylinder2", "--h", "1", "--radii", "4",
        "--samples", "2000", "--seed", "5",
    )
    assert doc == doc_direct


def test_alias_spelling_still_beats_config(capsys):
    # --point is the alias for --base; a config "base=" must not override it
    _, doc = run_json(
        capsys,
        "orbit-count", "--space", "moebius2", "--point", "0,3/10", "--radii", "1,2",
        "--config", "base=0,0",
    )
    assert doc["base"] == ["0", "3/10"]


@pytest.mark.parametrize("flag", [["--sam", "2000"], ["--sam=2000"], ["--samples", "2000"]])
def test_abbreviated_flag_beats_config(capsys, flag):
    # argparse reads --sam as --samples, so the config must not override it
    code, doc = run_json(
        capsys,
        "thin-set", "--space", "cylinder2", "--h", "1", "--radii", "4", *flag,
        "--config", "samples=3000",
    )
    assert code == 0 and doc["samples"] == 2000


def test_ambiguous_prefix_names_no_option():
    options = cli._options("thin-set")
    assert cli._flagged(["thin-set", "--sa", "1", "--ba=0,0", "--h", "1"], options) == {
        "samples", "base", "thickness"}
    # --s could be --samples, --seed or --space
    assert cli._flagged(["--s", "--", "-1", "--nope"], options) == set()


def test_config_global_key_skipped_where_inapplicable(capsys):
    code, doc = run_json(capsys, "soul-dim", "--space", "torus2", "--config", "seed=3")
    assert code == 0
    assert doc["soul_dimension"] == 2


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("seed=11\nsamples=2000  # trimmed comment\n")
    _, doc = run_json(
        capsys,
        "thin-set", "--space", "cylinder2", "--h", "1", "--radii", "4", "--config", str(cfg),
    )
    assert doc["samples"] == 2000


def test_config_value_gets_its_option_type_under_a_none_default(capsys):
    # --cap defaults to None; its config value must still become an int
    code, doc = run_json(capsys, "word-ball", "--group", "z2", "--radius", "3", "--config", "cap=100")
    _, doc_flag = run_json(capsys, "word-ball", "--group", "z2", "--radius", "3", "--cap", "100")
    assert code == 0 and doc == doc_flag


def test_config_samples_reach_the_quick_suite(capsys):
    # paper-suite's --samples defaults to None too
    code, doc = run_json(capsys, "paper-suite", "--quick", "--config", "samples=5000")
    assert code == 0 and doc["ok"] and doc["samples"] == 5000


@pytest.mark.parametrize("argv", [
    ("paper-suite", "--quick", "--config", "samples=abc"),
    # a choice the flag would refuse, and a namespace entry that is no option
    ("soul-dim", "--space", "torus2", "--config", "format=xml"),
    ("soul-dim", "--space", "torus2", "--config", "func=x"),
])
def test_config_value_the_flag_would_refuse_is_a_usage_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


# ---------------------------------------------------------------------------
# environment cap pass-through


def test_env_cap_reaches_word_ball(capsys, monkeypatch):
    monkeypatch.setenv("ORBITLAB_CAP", "10")
    code, out, _ = run(capsys, "word-ball", "--group", "z2", "--radius", "40")
    assert code == 3
    assert json.loads(out)["error"] == "CapExceeded"
    assert groups.enumeration_cap() == 10


# ---------------------------------------------------------------------------
# golden exact outputs

# stdout, stderr and exit code of orbit-count, milnor-check, index-check
# and dirichlet on every bundled space, recorded once; a consistent drift
# in exact output fails here even though two runs of the same code agree
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_exact_outputs_match_the_recorded_ones(capsys, case):
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


# stdout, stderr and exit code of the quick seeded suite, recorded once:
# two runs of the same code always agree, so only a recorded report sees
# a detail line, a data field or a stage order that a refactor moves
SUITE_GOLDEN = json.loads((Path(__file__).parent / "data" / "suite_golden.json").read_text())


@pytest.mark.parametrize("case", SUITE_GOLDEN, ids=[" ".join(c["argv"]) for c in SUITE_GOLDEN])
def test_suite_report_matches_the_recorded_one(capsys, case):
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


# ---------------------------------------------------------------------------
# one parser per process

# mixed subcommands over every --space, --config then none, --timings then
# none, csv then json, an argparse usage error and a ValueError one; each
# must print as it does in a fresh process, whether its deck group is
# built by the call or already memoised by an earlier one
REUSE_SEQUENCE = [
    ("orbit-count", "--space", "moebius2", "--radii", "1,2", "--config", "base=1/2,1/4"),
    ("orbit-count", "--space", "moebius2", "--radii", "1,2"),
    ("soul-dim", "--space", "torus2", "--timings"),
    ("orbit-count", "--space", "z2", "--radii", "1,2,5", "--format", "csv"),
    ("dirichlet", "--space", "torus2"),
    ("dirichlet", "--space", "klein2", "--point", "3/4,1/3", "--within", "1/4"),
    ("soul-dim", "--space", "torus2", "--config", "wibble=3"),
    ("dirichlet", "--space", "moebiusxT", "--point", "1/2,7/4,1/9", "--within", "1"),
    ("orbit-count", "--space", "cylinder2", "--radii", "1,2,3"),
    ("milnor-check", "--space", "z3", "--radii", "1,2"),
    ("orbit-count", "--space", "z1", "--radii", "1,2"),
]


def _run_alone(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "orbitlab", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call_as_a_fresh_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    groups.builtin_deck_group.cache_clear()
    try:
        in_process = []
        for argv in REUSE_SEQUENCE:
            try:
                code = cli.main(list(argv))
            except SystemExit as e:  # argparse's own usage errors
                code = e.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert built == [1]
        assert cli._parser().parse_args(["soul-dim", "--space", "torus2"]).config == []
    finally:
        cli._parser.cache_clear()
    assert [c for c, _, _ in in_process] == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0]
    assert {argv[2] for argv in REUSE_SEQUENCE} == set(cli.SPACE_CHOICES)
    with ThreadPoolExecutor(max_workers=2) as pool:  # two fresh processes at a time
        assert in_process == list(pool.map(_run_alone, REUSE_SEQUENCE))


def test_each_deck_group_is_built_once_per_process(capsys, monkeypatch):
    names = groups.DECK_GROUP_NAMES + ("z1", "z2", "z3")
    decks = {name: groups.builtin_deck_group(name) for name in names}
    assert all(groups.builtin_deck_group(name) is deck for name, deck in decks.items())
    assert run(capsys, "orbit-count", "--space", "torus2", "--radii", "10")[0] == 0
    # ORBITLAB_CAP is read at each scan, so a memoised deck still refuses
    monkeypatch.setenv("ORBITLAB_CAP", "10")
    code, out, _ = run(capsys, "orbit-count", "--space", "torus2", "--radii", "10")
    assert code == 3 and json.loads(out)["error"] == "CapExceeded"
    assert groups.builtin_deck_group("torus2") is decks["torus2"]

