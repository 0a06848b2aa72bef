"""End-to-end checks of the command line front end.

Commands run in-process through cli.main so stdout/stderr and exit codes
are asserted exactly as a shell would see them.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("spelling", ["z2", "Z^2"])
def test_soul_dim_of_a_lattice_space(capsys, spelling):
    code, doc = run_json(capsys, "soul-dim", "--space", spelling)
    assert code == 0
    assert (doc["space"], doc["soul_dimension"]) == ("z2", 2)


def test_thin_set_on_a_compact_lattice_space(capsys):
    # the soul is the whole torus, so the thin set is the quotient ball:
    # at radius 1 that is the whole unit cell
    code, doc = run_json(capsys, "thin-set", "--space", "z2", "--h", "1", "--radii", "1",
                         "--samples", "1000")
    assert code == 0
    row = doc["rows"][0]
    assert abs(row["value"] - 1) <= 4 * row["stderr"]


def test_every_space_name_reaches_every_space_command(capsys):
    """soul-dim and orbit-count accept the same names, Z^k spellings too."""
    names = list(cli.SPACE_CHOICES) + [f"Z^{k}" for k in (1, 2, 3)]
    for name in names:
        assert run(capsys, "soul-dim", "--space", name)[0] == 0, name
        assert run(capsys, "orbit-count", "--space", name, "--radii", "1")[0] == 0, name


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


@pytest.mark.parametrize("space,count", [("torus2", 25), ("cylinder2", 7)])
def test_injection_check_hurewicz_on_a_lattice_deck(capsys, space, count):
    code, doc = run_json(capsys, "injection-check", "--kind", "hurewicz", "--group", space, "--radius", "3")
    assert code == 0
    assert (doc["abelian_count"], doc["group_count"], doc["ok"]) == (count, count, True)


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
        # non-finite isometry entries and JSON past the decoder's depth
        ("classify", "--generators", '[{"A": [[1]], "v": [Infinity]}]'),
        ("classify", "--generators", '[{"A": [[1e400]], "v": [0]}]'),
        ("snf", "--matrix", "[" * 100_000),
        ("rank", "--num-generators", "1", "--relations", "[" * 100_000 + "]" * 100_000),
        ("injection-check", "--box", "-1"),
        # the polycyclic check is bundled for heisenberg only
        ("injection-check", "--group", "torus2", "--box", "1"),
        ("paper-suite", "--quick", "--config", "seed=-1"),
        # Hurewicz images are bundled for heisenberg and lattice decks only
        ("injection-check", "--kind", "hurewicz", "--group", "moebius2"),
        ("soul-dim", "--space", "no-such-space"),
        # warped inputs are finite numbers
        ("verify-dual", "--space", "warped", "--radii", "8,inf"),
        ("warped-distance", "--from", "0,0", "--to", "nan,0"),
        ("warped-ratio", "--c", "nan", "--radii", "4"),
        # isometry entries are ints or fraction strings, as snf's are ints
        ("classify", "--generators", '[{"A": [[true]], "v": [0]}]'),
        ("classify", "--generators", '[{"A": [[1]], "v": [false]}]'),
        ("classify", "--generators", '[{"A": [[1]], "v": [0.5]}]'),
        ("classify", "--generators", '[{"A": [[1.0, 0], [0, 1]], "v": [0, 1]}]'),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"error", "message"}
    assert doc["error"] in err


@pytest.mark.parametrize("argv", [
    ("paper-suite", "--seed", "-1"),
    ("verify-dual", "--space", "torus2", "--radii", "1", "--seed", "-3"),
    ("thin-set", "--space", "cylinder2", "--radii", "4", "--h", "1", "--seed", "x"),
])
def test_a_seed_is_a_non_negative_integer_or_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(list(argv))
    assert e.value.code == 2
    assert "--seed: expected a non-negative integer" in capsys.readouterr().err


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


def test_an_oversized_warped_grid_exits_3_before_it_is_allocated(capsys):
    # 2 * 10^9 columns per loop: refused by the node cap, not by numpy
    code, out, err = run(capsys, "warped-distance", "--k", "2", "--grid", "1e-9,1e-9")
    assert code == 3
    assert json.loads(out)["error"] == "CapExceeded"
    assert "Traceback" not in err


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
# exit codes of the word commands on generated argv

GROUP_NAMES = st.one_of(st.sampled_from(groups.GENERATED_GROUP_NAMES),
                        st.sampled_from(["Z^1", "z^2", "Z^3", "Z^0", "Z^4", "z^x", "nope", ""]))
SPACE_NAMES = st.one_of(st.sampled_from(groups.SPACE_NAMES), GROUP_NAMES)
NUMBERS = st.one_of(st.integers(-3, 8).map(str), st.sampled_from(["0", "-0", "1.5", "2/1", "x", ""]))
# valid increasing lists half the time, so the commands also run to the end
RADII = st.one_of(
    st.sets(st.integers(1, 8), min_size=1, max_size=4).map(lambda rs: ",".join(map(str, sorted(rs)))),
    st.lists(NUMBERS, min_size=1, max_size=4).map(",".join))
CAPS = st.one_of(st.integers(-3, 60).map(str), st.sampled_from(["0", "2.5", "cap"]))


@st.composite
def word_command_argv(draw):
    command = draw(st.sampled_from(["word-ball", "growth-fit", "milnor-check", "injection-check"]))
    if command == "word-ball":
        argv = [command, "--group", draw(GROUP_NAMES), "--radius", draw(NUMBERS)]
        argv += ["--elements"] if draw(st.booleans()) else []
    elif command == "growth-fit":
        argv = [command, "--group", draw(GROUP_NAMES), "--radii", draw(RADII)]
    elif command == "milnor-check":
        argv = [command, "--space", draw(SPACE_NAMES), "--radii", draw(RADII)]
    else:
        argv = [command, "--kind", "hurewicz", "--group", draw(GROUP_NAMES), "--radius", draw(NUMBERS)]
    if command != "growth-fit" and draw(st.booleans()):
        argv += ["--cap", draw(CAPS)]
    return argv


def _main_quietly(argv):
    """``cli.main``'s exit code and stderr, with stdout swallowed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refusing the argv
            code = e.code
    return code, err.getvalue()


@given(word_command_argv())
@settings(max_examples=60, deadline=None)
def test_word_commands_exit_on_a_documented_code(argv):
    start = time.perf_counter()
    code, err = _main_quietly(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# exit codes of the warped commands on generated argv

# sizes stay small (radii and k at most 16, base grids no finer than the
# default), so every example solves in milliseconds
WARPED_NUMBERS = st.one_of(st.integers(-2, 16).map(str),
                           st.sampled_from(["0", "-0", "0.5", "1.5", "inf", "nan", "x", ""]))
WARPED_LISTS = st.one_of(
    st.sets(st.integers(1, 16), min_size=1, max_size=3).map(lambda rs: ",".join(map(str, sorted(rs)))),
    st.lists(WARPED_NUMBERS, min_size=1, max_size=3).map(",".join))
WARPED_POINTS = st.one_of(
    st.tuples(st.integers(-16, 16), st.integers(0, 32)).map(lambda p: f"{p[0] / 4},{p[1] / 4}"),
    st.sampled_from(["1", "a,b", "1,2,3", "inf,0", ""]))
WARPED_GRIDS = st.sampled_from(["0.25,0.25", "0.5,0.5", "0.3,0.2", "0,1", "-0.25,0.25", "0.25",
                                "0.25,0.25,0.25", "a,b", "inf,1", "nan,0.25", ""])


@st.composite
def warped_command_argv(draw):
    command = draw(st.sampled_from(["warped-distance", "warped-ratio", "verify-dual"]))
    if command == "verify-dual":
        argv = [command, "--space", "warped", "--radii", draw(WARPED_LISTS)]
    elif command == "warped-ratio":
        argv = [command, "--c", draw(WARPED_LISTS), "--radii", draw(WARPED_LISTS)]
    elif draw(st.booleans()):
        argv = [command, "--k", draw(WARPED_LISTS)]
    else:
        argv = [command, "--from", draw(WARPED_POINTS), "--to", draw(WARPED_POINTS)]
    if command == "warped-distance" and draw(st.booleans()):
        argv += ["--space", draw(st.sampled_from(["N", "cover"]))]
    if draw(st.booleans()):
        argv += ["--grid", draw(WARPED_GRIDS)]
    return argv + (["--square-warp"] if draw(st.booleans()) else [])


@given(warped_command_argv())
@settings(max_examples=100, deadline=None)
def test_warped_commands_exit_on_a_documented_code(argv):
    code, err = _main_quietly(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# exit codes of the exact commands on generated argv

FRACTIONS = st.one_of(st.integers(-4, 8).map(str),
                      st.sampled_from(["1/2", "-3/4", "7/3", "0/1", "1/0", "0.25", "1e30", "1e400",
                                       "nan", "inf", "x", ""]))
POINTS = st.lists(FRACTIONS, max_size=4).map(",".join)
# JSON values of every kind, mostly small; entries may be non-finite floats
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.floats(), st.text(max_size=3),
              st.sampled_from(["1/2", "0", "x"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["A", "v", "num_generators", "relations", "x"]),
                                            inner, max_size=3)),
    max_leaves=6)
MATRICES = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=1, max_size=4))
ISOMETRIES = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "A": st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n), min_size=n, max_size=n),
    "v": st.lists(st.sampled_from([0, 1, "1/2", "-1/3", 0.5]), min_size=n, max_size=n)}))
JSON_TEXTS = st.one_of(
    st.one_of(MATRICES, st.lists(ISOMETRIES, min_size=1, max_size=3), JSON_VALUES).map(json.dumps),
    st.fixed_dictionaries({"num_generators": st.integers(-1, 4), "relations": MATRICES}).map(json.dumps),
    st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth),
    st.sampled_from(["[[1,2],[3", "[[Infinity]]", "[[NaN, 1]]", "@/no/such/file.json", "", "x"]))


@st.composite
def exact_command_argv(draw):
    command = draw(st.sampled_from(["orbit-count", "index-check", "dirichlet", "classify", "soul-dim",
                                    "snf", "rank"]))
    space = ["--space", draw(SPACE_NAMES)]
    base = ["--base", draw(POINTS)] if draw(st.booleans()) else []
    if command in ("orbit-count", "index-check"):
        argv = [command, *space, *base, "--radii", draw(RADII)]
    elif command == "dirichlet":
        argv = ["dirichlet", *space, *base, "--point", draw(POINTS)]
        argv += ["--within", draw(FRACTIONS)] if draw(st.booleans()) else []
    elif command == "classify":
        argv = ["classify", *(space if draw(st.booleans()) else ["--generators", draw(JSON_TEXTS)])]
        argv += ["--dim", draw(NUMBERS)] if draw(st.booleans()) else []
    elif command == "soul-dim":
        argv = ["soul-dim", *space]
    elif command == "snf":
        argv = ["snf", "--matrix", draw(JSON_TEXTS)]
    elif draw(st.booleans()):
        argv = ["rank", "--presentation", draw(JSON_TEXTS)]
    else:
        argv = ["rank", "--num-generators", draw(NUMBERS), "--relations", draw(JSON_TEXTS)]
    if command == "rank" and draw(st.booleans()):
        argv += ["--elements", draw(JSON_TEXTS)]
    return argv + (["--format", "csv"] if draw(st.booleans()) else [])


@given(exact_command_argv())
@settings(max_examples=200, deadline=None)
def test_exact_commands_exit_on_a_documented_code(argv):
    start = time.perf_counter()
    code, err = _main_quietly(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# exit codes of the flat Monte Carlo and growth commands on generated argv

# radii at most 4 and 1,000-2,000 samples keep every example to tens of
# milliseconds; paper-suite is left out, as its quick run alone takes
# seconds
FLAT_NUMBERS = st.one_of(st.integers(-2, 4).map(str),
                         st.sampled_from(["0", "-0", "1/2", "7/3", "3.5", "1/0", "nan", "x", ""]))
FLAT_RADII = st.one_of(
    st.sets(st.integers(1, 4), min_size=1, max_size=4).map(lambda rs: ",".join(map(str, sorted(rs)))),
    st.lists(FLAT_NUMBERS, min_size=1, max_size=4).map(",".join))
SAMPLES = st.one_of(st.integers(1000, 2000).map(str), st.sampled_from(["999", "0", "-1", "x"]))


@st.composite
def flat_command_argv(draw):
    command = draw(st.sampled_from(["thin-set", "verify-dual", "growth-fit", "injection-check"]))
    if command == "injection-check":
        argv = [command, "--kind", "polycyclic"] if draw(st.booleans()) else [command]
        argv += ["--group", draw(GROUP_NAMES)] if draw(st.booleans()) else []
        argv += ["--box", draw(FLAT_NUMBERS)] if draw(st.booleans()) else []
        return argv + (["--cap", draw(CAPS)] if draw(st.booleans()) else [])
    argv = [command, "--space", draw(SPACE_NAMES), "--radii", draw(FLAT_RADII)]
    argv += ["--base", draw(POINTS)] if draw(st.booleans()) else []
    if command == "thin-set":
        argv += ["--h", draw(FRACTIONS)]
    if command != "growth-fit":
        argv += ["--samples", draw(SAMPLES)]
        argv += ["--seed", draw(st.integers(0, 9).map(str))] if draw(st.booleans()) else []
    if command == "verify-dual" and draw(st.booleans()):
        argv += ["--word-variant"]
    return argv + (["--format", "csv"] if draw(st.booleans()) else [])


def test_flat_commands_exit_on_a_documented_code():
    @given(flat_command_argv())
    @settings(max_examples=100, deadline=None)
    def exits_on_a_documented_code(argv):
        code, err = _main_quietly(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    start = time.perf_counter()
    exits_on_a_documented_code()
    assert time.perf_counter() - start < 3.0  # every example together


# ---------------------------------------------------------------------------
# environment cap pass-through


def test_env_cap_reaches_word_ball(capsys, monkeypatch):
    monkeypatch.setenv("ORBITLAB_CAP", "10")
    code, out, _ = run(capsys, "word-ball", "--group", "z2", "--radius", "40")
    assert code == 3
    assert json.loads(out)["error"] == "CapExceeded"
    assert groups.enumeration_cap() == 10


def test_injection_check_cap_zero_refuses_the_ball(capsys):
    # as word-ball: --cap 0 is a cap of zero elements, not the default
    code, out, _ = run(capsys, "injection-check", "--kind", "hurewicz", "--group", "z2",
                       "--radius", "2", "--cap", "0")
    assert code == 3
    assert json.loads(out)["error"] == "CapExceeded"


def test_env_cap_reaches_injection_check(capsys, monkeypatch):
    monkeypatch.setenv("ORBITLAB_CAP", "5")
    code, out, _ = run(capsys, "injection-check", "--kind", "hurewicz", "--group", "z2", "--radius", "3")
    assert code == 3
    assert json.loads(out)["error"] == "CapExceeded"


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


# the one value that may differ between runs: --timings wall-clock seconds
ELAPSED = re.compile(r'"elapsed_seconds": (.*)\n')


def _timings_cut(outcomes):
    """The (code, out, err) outcomes with each ``elapsed_seconds`` value,
    checked to be a float >= 0, cut out; and how many were cut."""
    values = [json.loads(v) for _, out, _ in outcomes for v in ELAPSED.findall(out)]
    assert all(isinstance(v, float) and v >= 0 for v in values)
    return [(code, ELAPSED.sub('"elapsed_seconds": -\n', out), err) for code, out, err in outcomes], len(values)


def _run_alone(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "orbitlab", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv,code,unbuffered", [
    (("injection-check", "--kind", "hurewicz", "--group", "heisenberg", "--radius", "1"), 0, True),
    (("injection-check", "--kind", "hurewicz", "--group", "heisenberg", "--radius", "1"), 0, False),
    (("injection-check", "--group", "torus2"), 2, False),
])
def test_a_closed_stdout_ends_quietly_with_the_commands_own_code(argv, code, unbuffered):
    # as `... | head -3` does once head has read its lines
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "orbitlab", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == code
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert err == ("" if code == 0 else "orbitlab: ValueError: the polycyclic check is bundled for "
                   "heisenberg only, not 'torus2'\n")


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
        fresh = list(pool.map(_run_alone, REUSE_SEQUENCE))
    # soul-dim --timings reports its own wall time, which a stalled
    # process can round up to a millisecond; every other byte must match
    cut, timed = _timings_cut(in_process)
    assert timed == 1 and _timings_cut(fresh) == (cut, 1)


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


# one fresh process runs each exact command; none may load the numeric
# stack, which only Monte Carlo volumes and warped grids use
EXACT_SEQUENCE = [
    ("snf", "--matrix", "[[2,4],[6,8]]"),
    ("orbit-count", "--space", "moebius2", "--radii", "1,2,3"),
    ("dirichlet", "--space", "moebiusxT", "--point", "1/2,7/4,1/9", "--within", "1"),
    ("classify", "--space", "moebius2"),
    ("soul-dim", "--space", "cylinder2"),
    ("milnor-check", "--space", "z2", "--radii", "1,2"),
]

_EXACT_SCRIPT = """
import contextlib, io, json, sys
from orbitlab import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))]))
"""


def test_exact_commands_load_neither_numpy_nor_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _EXACT_SCRIPT, json.dumps(EXACT_SEQUENCE)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, numeric = json.loads(proc.stdout)
    assert codes == [0] * len(EXACT_SEQUENCE)
    assert numeric == []
