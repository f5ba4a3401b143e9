import cmath
import contextlib
import io
import json
import math
import runpy
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelog import IntegratorConfig, NumericError, selftest
from curvelog.cli import _FLAGS, main
from curvelog.errors import DEFAULT_WEIGHT
from curvelog.local_expansion import DEFAULT_ORDER

from oracles import LOG2, ZETA2


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run_cli(capsys, *argv)
    assert rc == 0, out
    return json.loads(out)


def test_mzv_command(capsys):
    data = run_json(capsys, "mzv", "--word", "1,0")
    assert data["word"] == ["1", "0"]
    re, im = data["value"]
    assert abs(re - (-ZETA2)) < 1e-9
    assert abs(im) < 1e-9


def test_eval_point_mode(capsys):
    data = run_json(capsys, "eval", "--poles", "0,1", "--word", "1",
                    "--point", "1/2")
    assert data["path_class"] == "principal"
    assert abs(data["value"][0] + LOG2) < 1e-9


def test_eval_path_mode(capsys):
    path = json.dumps({"base": [1, 0],
                       "segments": [{"line": [[1, 0], [2, 0]]}]})
    data = run_json(capsys, "eval", "--poles", "0", "--word", "0",
                    "--path-json", path)
    assert data["point"] == [2.0, 0.0]
    assert abs(data["value"][0] - LOG2) < 1e-9


def test_eval_csv_trace(capsys):
    path = json.dumps({"base": [1, 0],
                       "segments": [{"line": [[1, 0], [2, 0]]}]})
    rc, out = run_cli(capsys, "eval", "--poles", "0", "--word", "0",
                      "--path-json", path, "--csv")
    assert rc == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1].startswith("Re[") and header[2].startswith("Im[")
    last = lines[-1].split(",")
    col = header.index("Re[((1)/(z-(0)))dz]")
    assert abs(float(last[col]) - LOG2) < 1e-8


def test_reduce_command(capsys):
    tensor = json.dumps({"terms": [
        {"word": [{"pole": "0"}], "coeff": {"re": "1", "im": "0"}}]})
    data = run_json(capsys, "reduce", "--poles", "0,1",
                    "--tensor-json", tensor)
    assert data["poles"] == ["0", "1"]
    assert data["terms"] == [{"word": ["0"], "f": {"poly": ["1"],
                                                   "principal": []}}]


def test_kernel_command_detects_membership(capsys):
    # [w0 | dz | w1] - [w0 | (1 + 1/(z-1)) dz] + [dz | w1] integrates to zero
    dz = {"rf": {"poly": ["1"], "principal": []}}
    w0 = {"pole": "0"}
    w1 = {"pole": "1"}
    mixed = {"rf": {"poly": ["1"],
                    "principal": [{"pole": "1", "order": 1, "coeff": "1"}]}}
    tensor = json.dumps({"terms": [
        {"word": [w0, dz, w1], "coeff": {"re": "1", "im": "0"}},
        {"word": [w0, mixed], "coeff": {"re": "-1", "im": "0"}},
        {"word": [dz, w1], "coeff": {"re": "1", "im": "0"}},
    ]})
    data = run_json(capsys, "kernel", "--poles", "0,1",
                    "--tensor-json", tensor)
    assert data["member"] is True
    assert data["normal_form"]["terms"] == []

    plain = json.dumps({"terms": [
        {"word": [{"pole": "0"}], "coeff": {"re": "1", "im": "0"}}]})
    data = run_json(capsys, "kernel", "--poles", "0,1",
                    "--tensor-json", plain)
    assert data["member"] is False


def test_tensor_payload_from_file(tmp_path, capsys):
    blob = {"terms": [{"word": [{"pole": "0"}],
                       "coeff": {"re": "2", "im": "0"}}]}
    f = tmp_path / "t.json"
    f.write_text(json.dumps(blob))
    data = run_json(capsys, "reduce", "--poles", "0,1",
                    "--tensor-json", f"@{f}")
    assert data["terms"][0]["f"]["poly"] == ["2"]


def test_periods_command(capsys):
    data = run_json(capsys, "periods", "--poles", "0,1")
    assert data["poles"] == ["0", "1"]
    m = data["matrix"]
    tau = 2 * math.pi
    for i in range(2):
        for j in range(2):
            re, im = m[i][j]
            want = tau if i == j else 0.0
            assert abs(re) < 1e-8 and abs(im - want) < 1e-8


def test_monodromy_command(capsys):
    data = run_json(capsys, "monodromy", "--poles", "0,1", "--word", "0",
                    "--weight", "1")
    assert data["loop"] == "ccw(0)"
    basis = [tuple(w) for w in data["basis"]]
    assert len(data["values"]) == len(basis)
    re, im = data["values"][basis.index(("0",))]
    assert abs(re) < 1e-8 and abs(im - 2 * math.pi) < 1e-8


def test_monodromy_over_the_matrix_cap_is_refused_before_integrating(
        capsys, monkeypatch):
    import tracemalloc

    from curvelog import iterint

    def never(*args, **kwargs):
        raise AssertionError("built or integrated a basis over the cap")

    # weight 12 on three letters is the first past the series cap
    monkeypatch.setattr(iterint, "_run", never)
    monkeypatch.setattr(iterint, "word_cuts", never)
    tracemalloc.start()
    try:
        rc = main(["monodromy", "--poles", "0,1,-1", "--word", "0",
                   "--weight", "12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "MiB array cap" in captured.err
    assert peak < 8 * 2 ** 20


def test_series_output_rebuilds_the_dense_operator(capsys):
    from curvelog import PoleSet, Section, circle_loop, monodromy_operator

    rc, out = run_cli(capsys, "monodromy", "--poles", "0,1,-1", "--word",
                      "0", "--weight", "3")
    assert rc == 0
    ps = PoleSet.of("0,1,-1")
    loop = circle_loop(ps, "0")
    op = monodromy_operator(loop, Section.standard(ps), 3)
    full = {"loop": loop.label, "basis": [list(w) for w in op.basis],
            "values": [[z.real, z.imag] for z in op.vector.tolist()]}
    assert out == json.dumps(full) + "\n"
    # the reading rule: entry (w, v) is the value of u when w = u v, else 0
    data = json.loads(out)
    basis = [tuple(w) for w in data["basis"]]
    values = {w: complex(*z) for w, z in zip(basis, data["values"])}
    m = op.matrix
    for i, w in enumerate(basis):
        for j, v in enumerate(basis):
            k = len(w) - len(v)
            want = values[w[:k]] if k >= 0 and w[k:] == v else 0j
            assert m[i, j] == want


@pytest.mark.parametrize("weight, words", [(7, 3280), (8, 9841)])
def test_monodromy_past_the_old_dense_cap_prints_under_a_megabyte(
        capsys, weight, words):
    rc, out = run_cli(capsys, "monodromy", "--poles", "0,1,-1", "--word",
                      "0", "--weight", str(weight))
    assert rc == 0
    # the dense view on these bases is 172 MB and 1.5 GB of complex entries
    assert len(out.encode()) < 10 ** 6
    data = json.loads(out)
    assert len(data["basis"]) == len(data["values"]) == words


def test_expand_command(capsys):
    data = run_json(capsys, "expand", "--poles", "0,1", "--word", "0",
                    "--point", "0")
    assert data["terms"] == [{"j": 0, "k": 1, "coeff": [1.0, 0.0]}]
    assert data["radius"] == 0.5


def test_kz_check_command(capsys):
    data = run_json(capsys, "kz-check", "--poles", "1/3,1/2")
    assert data["ok"] is True


def test_selftest_subset(capsys):
    rc, out = run_cli(capsys, "selftest", "--criteria", "8,9")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("ACCEPTANCE 8: PASS")
    assert lines[1].startswith("ACCEPTANCE 9: PASS")
    assert lines[2] == "2/2 criteria passed"


def test_exit_code_input_errors(capsys):
    assert main(["mzv"]) == 1                      # missing --word
    capsys.readouterr()
    assert main(["reduce", "--poles", "0,1", "--tensor-json", "{bad"]) == 1
    capsys.readouterr()
    assert main(["eval", "--poles", "0,1", "--word", "0"]) == 1  # no point
    capsys.readouterr()
    assert main(["nope"]) == 1                     # unknown subcommand
    capsys.readouterr()
    for criteria in ("99", ",", "", "8,,9"):       # unknown or no number
        assert main(["selftest", "--criteria", criteria]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the criteria are 1,2,3,4,5,6,7,8,9,10,11,12" in captured.err


@pytest.mark.filterwarnings(
    "ignore:'curvelog.cli' found in sys.modules:RuntimeWarning")
@pytest.mark.parametrize("argv,code", [(["mzv", "--word", "1,0"], 0),
                                       (["mzv", "--word", "1"], 2)])
def test_the_module_run_as_a_script_exits_with_mains_code(argv, code, capsys,
                                                          monkeypatch):
    # python -m curvelog.cli, in process: the __main__ guard passes main's
    # return value to sys.exit
    monkeypatch.setattr(sys, "argv", ["curvelog", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("curvelog.cli", run_name="__main__")
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert bool(out) == (code == 0) and bool(err) == (code != 0)


def test_a_bare_curvelog_error_exits_2_with_its_message(capsys, monkeypatch):
    from curvelog.cli import _SUBCOMMANDS
    from curvelog.errors import CurvelogError

    def refused(args):
        raise CurvelogError("no handler for this")

    monkeypatch.setitem(_SUBCOMMANDS, "kz-check",
                        (refused, *_SUBCOMMANDS["kz-check"][1:]))
    assert main(["kz-check", "--poles", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no handler for this\n"


# The flags each subcommand reads; argparse refuses every other flag.
_ROWS = {
    "eval": ["--poles", "--word", "--point", "--path-json", "--rtol",
             "--atol", "--csv"],
    "mzv": ["--word"],
    "reduce": ["--poles", "--tensor-json"],
    "kernel": ["--poles", "--tensor-json"],
    "monodromy": ["--poles", "--word", "--path-json", "--weight", "--rtol",
                  "--atol"],
    "periods": ["--poles", "--rtol", "--atol"],
    "expand": ["--poles", "--word", "--point", "--weight", "--rtol",
               "--atol"],
    "kz-check": ["--poles"],
    "selftest": ["--seed", "--criteria"],
}


def test_each_subcommand_parses_only_the_flags_it_reads(capsys):
    import argparse

    from curvelog.cli import _build_parser

    sub, = [a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    flags = {name: [opt for a in sp._actions for opt in a.option_strings
                    if a.dest != "help"]
             for name, sp in sub.choices.items()}
    assert flags == _ROWS
    assert sum(map(len, flags.values())) == 30
    for command, row in _ROWS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = {word.strip("[],") for word in capsys.readouterr().out.split()
                  if word.strip("[],").startswith("--")}
        assert listed == set(row) | {"--help"}


@pytest.mark.parametrize("argv", [
    ["mzv", "--word", "1,0", "--poles", "0,1,-1"],
    ["periods", "--poles", "0,1", "--weight", "-1"],
    ["kz-check", "--poles", "0,1", "--weight", "9", "--csv", "--rtol", "1e-3"],
    ["eval", "--poles", "0,1", "--word", "1", "--point", "1/2", "--seed", "5"],
    ["mzv", "--word", "1,0", "--seed", "5", "--csv", "--point", "3"],
])
def test_flags_a_subcommand_does_not_read_are_input_errors(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "input error" in captured.err


@pytest.mark.parametrize("argv", [
    ["kz-check", "--poles", "0,1e99999999"],
    ["kz-check", "--poles", "0,1e5000"],
    ["expand", "--poles", "0,1", "--word", "1", "--point", "1e-99999999"],
    ["expand", "--poles", "0,1", "--word", "1", "--point", "1e99999999"],
    ["eval", "--poles", "0,1", "--word", "1", "--point", "1e99999999"],
    ["reduce", "--poles", "0,1", "--tensor-json", '{"terms": [{"word": '
     '[{"pole": "0"}], "coeff": {"re": "1e5000"}}]}'],
    ["kernel", "--poles", "0,1", "--tensor-json", '{"terms": [{"word": '
     '[{"pole": "0"}], "coeff": {"re": "1", "im": "1e99999999"}}]}'],
])
def test_literals_past_the_digit_limit_exit_1_promptly(argv):
    import os
    import resource
    import time

    import curvelog

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(curvelog.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    # in a child process, so that a literal expanded in full is killed by
    # the timeout or the 1 GiB cap instead of stalling the suite
    proc = subprocess.run([sys.executable, "-m", "curvelog.cli", *argv],
                          capture_output=True, text=True, timeout=20,
                          env=env, preexec_fn=cap_memory)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "digits" in proc.stderr or "overflows" in proc.stderr


def test_exact_results_past_the_digit_limit_are_domain_errors(capsys):
    # each literal is within the limit, their product is not: the writer
    # refuses the 6,001-digit coefficient instead of ending in a traceback
    tensor = ('{"terms": [{"word": [{"rf": {"poly": ["1e3000"], '
              '"principal": []}}], "coeff": {"re": "1e3000"}}]}')
    for command in ("reduce", "kernel"):
        assert main([command, "--poles", "0,1", "--tensor-json", tensor]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "domain error" in captured.err and "digits" in captured.err


@pytest.mark.parametrize("order", ['"x"', "1.5", "true", '"2"'])
def test_non_integral_pole_orders_are_input_errors(capsys, order):
    letter = ('{"rf": {"poly": [], "principal": [{"pole": "0", "order": '
              + order + ', "coeff": "1"}]}}')
    tensor = '{"terms": [{"word": [' + letter + '], "coeff": {"re": "1"}}]}'
    for command in ("reduce", "kernel"):
        assert main([command, "--poles", "0,1", "--tensor-json", tensor]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pole order" in captured.err
    # an integer order is read as before
    tensor = tensor.replace(order, "2")
    data = run_json(capsys, "reduce", "--poles", "0,1", "--tensor-json", tensor)
    assert data["terms"][0]["f"]["principal"] == [
        {"pole": "0", "order": 1, "coeff": "-1"}]


@pytest.mark.parametrize("order", [10 ** 9, 10 ** 24])
def test_pole_orders_over_the_array_cap_are_refused_before_any_work(
        capsys, order):
    import tracemalloc

    letters = [{"pole": "1"}, {"rf": {"principal": [
        {"pole": "0", "order": order, "coeff": "1"}]}}]
    tensor = json.dumps({"terms": [{"word": word, "coeff": {"re": "1"}}
                                   for word in (letters, letters[1:])]})
    for command in ("reduce", "kernel"):
        tracemalloc.start()
        try:
            rc = main([command, "--poles", "0,1", "--tensor-json", tensor])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "cap of 4095 on a principal part" in captured.err
        assert "Traceback" not in captured.err
        assert peak < 8 * 2 ** 20


# A small grammar of tensor payloads for `reduce` and `kernel`: valid letters
# and coefficients, mixed with wrong types, bad literals, non-integral or
# out-of-range orders and unknown poles.  Orders and weights stay at most 3.
_junk = st.sampled_from([None, True, 1.5, [], {}, "x", "1/0", -1])
_literal = st.one_of(st.sampled_from(["1", "-1/2", "i", "1/2+i", "0"]),
                     st.integers(-3, 3), _junk)
_pole = st.one_of(st.sampled_from(["0", "1", "2", "x"]), st.integers(-1, 2),
                  _junk)
_order = st.one_of(st.integers(-1, 3), _junk, st.just("2"))
_principal = st.fixed_dictionaries(
    {"pole": _pole, "order": _order, "coeff": _literal})
_rf = st.one_of(
    st.fixed_dictionaries({"poly": st.lists(_literal, max_size=2),
                           "principal": st.lists(_principal, max_size=2)}),
    _junk)
_letter = st.one_of(st.fixed_dictionaries({"pole": _pole}),
                    st.fixed_dictionaries({"rf": _rf}), _junk)
_coeff = st.one_of(
    st.fixed_dictionaries({"re": _literal}, optional={"im": _literal}),
    _junk)
_term = st.one_of(st.fixed_dictionaries(
    {"word": st.lists(_letter, max_size=3), "coeff": _coeff}), _junk)
_payload = st.one_of(
    st.one_of(st.fixed_dictionaries({"terms": st.lists(_term, max_size=3)}),
              _junk).map(json.dumps),
    st.sampled_from(["{bad", "", "[" * 5000 + "]" * 5000, '{"terms": 5}']))


def run_fuzzed(argv) -> tuple:
    """Exit code and stdout of main(argv), which must be a known exit code,
    JSON on success (but for the CSV trace and the selftest report), and no
    traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
    if rc == 0 and argv[0] != "selftest" and "--csv" not in argv:
        json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue()
    return rc, out.getvalue()


@settings(max_examples=150)
@given(st.sampled_from(["reduce", "kernel"]), _payload)
def test_fuzzed_tensor_payloads_never_end_in_a_traceback(command, payload):
    rc, out = run_fuzzed([command, "--poles", "0,1", "--tensor-json", payload])
    assert rc == 0 or out == ""


# Options for the integrating subcommands: weights and orders at most 3,
# small points and paths, mostly well formed and mixed with malformed values.
_LINE = {"base": [1, 0], "segments": [{"line": [[1, 0], [2, 0]]}]}
_CIRCLE = {"base": [0.5, 0], "segments": [{"arc": {
    "center": [0, 0], "radius": 0.5, "from": 0, "to": 2 * math.pi}}]}
_THROUGH_ZERO = {"base": [-1, 0], "segments": [{"line": [[-1, 0], [1, 0]]}]}


def _arc_with(**fields):
    arc = dict(_CIRCLE["segments"][0]["arc"], **fields)
    return {"base": _CIRCLE["base"], "segments": [{"arc": arc}]}


# Path payloads with a NaN, an infinity, a boolean or a string where a
# number belongs; json.dumps writes the non-finite floats as NaN, Infinity
# and -Infinity.
_NON_NUMERIC_PATHS = [
    {"base": [math.nan, 0], "segments": [{"line": [[math.nan, 0], [0.5, 0]]}]},
    {"base": [0.5, 0], "segments": [{"line": [[0.5, 0], [math.inf, 0]]}]},
    {"base": [0.5, 0], "segments": [{"line": [[0.5, 0], [1.5, -math.inf]]}]},
    {"base": [True, 0], "segments": [{"line": [[True, 0], [2, 0]]}]},
    {"base": [1, 0], "segments": [{"line": [[1, 0], [2, False]]}]},
    _arc_with(center=[math.nan, 0]),
    _arc_with(radius=math.inf),
    _arc_with(**{"from": -math.inf}),
    _arc_with(to=math.nan),
    _arc_with(radius=True),
    _arc_with(radius="0.5"),
]
# Values for every flag; --csv takes none.  A draw carries the flags its
# subcommand needs and some of the others from its row in _ROWS.
_VALUES = {
    "--poles": st.sampled_from(["0,1", "0,1,-1", "0,i", "0", "1,1", "x"]),
    "--word": st.lists(st.sampled_from(["0", "1", "-1", "i", "2"]),
                       min_size=1, max_size=3).map(",".join),
    "--point": st.sampled_from(["1/2", "2", "-1/2+i", "0.3-0.2i", "0", "1",
                                "nan", "1e400", "x"]),
    "--weight": st.integers(-1, 3).map(str),
    "--rtol": st.sampled_from(["1e-8", "0", "nan", "x"]),
    "--atol": st.sampled_from(["1e-10", "-1e-9", "inf"]),
    "--path-json": st.sampled_from(
        [json.dumps(p) for p in (_LINE, _CIRCLE, _THROUGH_ZERO)]
        + [json.dumps(p) for p in _NON_NUMERIC_PATHS]
        + ["{bad", '{"base": 5}', "[]"]),
    "--csv": st.none(),
    "--tensor-json": _payload,
    "--seed": st.integers(-2, 5).map(str),
    "--criteria": st.just("9"),
}
_NEEDED = {"--poles", "--word", "--point", "--tensor-json", "--criteria"}


def _arg(data, flag, value) -> list:
    """The option as --flag=value or as the two tokens flag, value."""
    if value is None:
        return [flag]
    return data.draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_ROWS)), st.data())
def test_fuzzed_subcommands_never_end_in_a_traceback(command, data):
    row = _ROWS[command]
    options = data.draw(st.fixed_dictionaries(
        {flag: _VALUES[flag] for flag in row if flag in _NEEDED},
        optional={flag: _VALUES[flag] for flag in row
                  if flag not in _NEEDED}))
    argv = [command] + [tok for flag, value in options.items()
                        for tok in _arg(data, flag, value)]
    stray = data.draw(st.none() | st.sampled_from(
        [flag for flag in _VALUES if flag not in row]))
    if stray is None:
        run_fuzzed(argv)
        return
    # a flag from outside the row is refused before any work
    at = data.draw(st.integers(1, len(argv)))
    argv[at:at] = _arg(data, stray, data.draw(_VALUES[stray]))
    assert run_fuzzed(argv) == (1, "")


@pytest.mark.parametrize("argv", [
    ["eval", "--poles", "0,1", "--word", "1"],
    ["monodromy", "--poles", "0,1", "--weight", "2"],
])
@pytest.mark.parametrize("path", _NON_NUMERIC_PATHS)
def test_non_finite_and_boolean_path_numbers_are_input_errors(capsys, argv,
                                                              path):
    assert main(argv + ["--path-json", json.dumps(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "malformed path payload" in captured.err


def _negative_arc(center, base, th0, th1, radius=-0.5):
    return {"base": base, "segments": [{"arc": {
        "center": center, "radius": radius, "from": th0, "to": th1}}]}


@pytest.mark.parametrize("path", [
    # runs through both punctures of {0, 1}: the clearance read 1.0 for
    # the puncture 0, and the integration underflowed (exit 3)
    _negative_arc([0.5, 0], [0.5, -0.5], math.pi / 2, 5 * math.pi / 2),
    # a circle about the puncture 0: refused as passing within -0.5 of it
    _negative_arc([0, 0], [-0.5, 0], 0, 2 * math.pi),
    _negative_arc([0.5, 0.5], [0.5, 0.5], 0, 1, radius=0),
])
def test_an_arc_radius_that_is_not_positive_is_an_input_error(capsys, path):
    assert main(["eval", "--poles", "0,1", "--word", "0",
                 "--path-json", json.dumps(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "not a positive finite number" in captured.err


@pytest.mark.parametrize("letter, coeff", [
    ('{"pole": true}', '{"re": "1"}'),
    ('{"pole": "0"}', '{"re": true}'),
    ('{"rf": {"poly": "12"}}', '{"re": "1"}'),
])
def test_wrongly_typed_tensor_payloads_are_input_errors(capsys, letter,
                                                        coeff):
    tensor = ('{"terms": [{"word": [' + letter + '], "coeff": ' + coeff
              + '}]}')
    assert main(["reduce", "--poles", "0,1", "--tensor-json", tensor]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


_EVAL = ["eval", "--poles", "0,1", "--word", "0"]


@pytest.mark.parametrize("argv, message", [
    (_EVAL + ["--point", "0.5", "--rtol", "abc"], "invalid float value"),
    (["eval", "--poles", "0,1", "--word", ",", "--point", "0.5"],
     "empty word"),
    (["reduce", "--poles", "0,1", "--tensor-json", "@{missing}"],
     "cannot read"),
    (_EVAL + ["--point", "foo"], "cannot parse point"),
    (_EVAL + ["--point", "1e5000"], "overflows a float"),
    (["reduce", "--poles", "0,1", "--tensor-json",
      '{"terms": [{"word": [{}], "coeff": {"re": "1"}}]}'],
     "needs a 'pole' or 'rf' key"),
    (_EVAL + ["--point", "0.5", "--csv"],
     "the CSV trace needs an explicit --path-json"),
    (["monodromy", "--poles", "0,1", "--word", "0,1"],
     "must name a single pole"),
    (["expand", "--poles", "0,1", "--word", "0"], "expand needs --point"),
], ids=["rtol", "word", "payload-file", "point", "point-overflow", "letter",
        "csv", "monodromy-word", "expand-point"])
def test_a_refused_input_exits_1_with_its_message(capsys, tmp_path, argv,
                                                  message):
    missing = str(tmp_path / "missing.json")
    assert main([a.replace("{missing}", missing) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("pole, label", [(2, "2"), (1, "1"), (0, "0"),
                                         (1.0, "1")])
@pytest.mark.parametrize("where", ["letter", "principal"])
def test_a_numeric_pole_is_an_input_error(capsys, where, pole, label):
    # the pole 2 sits at index 1 of "0,2,1" and 1 at index 2, so a number
    # read as an index named the other pole's word with exit 0
    def tensor(p):
        letter = {"pole": p} if where == "letter" else {"rf": {"principal": [
            {"pole": p, "order": 1, "coeff": "1"}]}}
        return json.dumps({"terms": [{"word": [letter],
                                      "coeff": {"re": "1"}}]})

    argv = ["reduce", "--poles", "0,2,1", "--tensor-json"]
    assert main(argv + [tensor(pole)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "is not a label string" in captured.err
    # the label names its own pole
    data = run_json(capsys, *argv, tensor(label))
    assert [t["word"] for t in data["terms"]] == [[label]]


def test_an_arc_no_budget_covers_is_refused_before_planning(capsys):
    # 1e306 radians about (5, 0): every piece is at most 2 pi long, so the
    # sweep would exhaust its budget only after seconds of planning
    path = {"base": [5.5, 0], "segments": [{"arc": {
        "center": [5, 0], "radius": 0.5, "from": 0, "to": 1e306}}]}
    t = time.perf_counter()
    rc = main(["eval", "--poles", "0,1", "--word", "0",
               "--path-json", json.dumps(path)])
    assert rc == 3 and time.perf_counter() - t < 1.0
    assert "piece budget exhausted" in capsys.readouterr().err


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write is a broken pipe."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [
    ["mzv", "--word", "1,0"],
    ["monodromy", "--poles", "0,1", "--word", "0", "--weight", "2"],
])
def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path, monkeypatch,
                                                     capsys, argv):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fh.fileno()))
        rc = main(argv)
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err


def test_exit_code_domain_errors(capsys):
    assert main(["mzv", "--word", "1,1"]) == 2     # divergent limit
    capsys.readouterr()
    assert main(["eval", "--poles", "0,1", "--word", "0",
                 "--point", "0"]) == 2             # regularization point
    capsys.readouterr()


def test_exit_codes_for_non_finite_and_overflowing_points(capsys):
    assert main(["eval", "--poles", "0,1", "--word", "0,1",
                 "--point", "nan"]) == 2
    assert capsys.readouterr().out == ""
    err = _refused(capsys, ["eval", "--poles", "0,1", "--word", "1",
                            "--point", "nan+1i"])
    assert "an end is not finite" in err
    # the infinities are spelled with an i, which is not the imaginary unit
    for point in ("inf", "-inf", "1+infi"):
        err = _refused(capsys, ["eval", "--poles", "0,1", "--word", "0,1",
                                f"--point={point}"])
        assert "an end is not finite" in err
    assert main(["eval", "--poles", "0,1", "--word", "0,1",
                 "--point", "1e400"]) == 1
    assert "overflows a float" in capsys.readouterr().err
    assert main(["eval", "--poles", "0,1", "--word", "1",
                 "--point", "-1e400+2i"]) == 1
    assert "overflows a float" in capsys.readouterr().err
    # an infinite part does not hide one that overflows
    assert main(["eval", "--poles", "0,1", "--word", "1",
                 "--point=1e400+infi"]) == 1
    assert "overflows a float" in capsys.readouterr().err
    assert main(["eval", "--poles", "0,1", "--word", "1",
                 "--point", "1e300"]) in (0, 2)
    capsys.readouterr()
    assert main(["expand", "--poles", "0,1", "--word", "0",
                 "--point", "1e400"]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, rest", [
    ("--word", "-1,0", ["--poles", "0,1,-1", "--point", "0.5"]),
    ("--poles", "-1,0,1", ["--word", "1", "--point", "0.5"]),
    ("--point", "-0.5+0.3i", ["--poles", "0,1", "--word", "1"])])
def test_a_value_with_a_leading_minus_is_its_own_argument(capsys, flag,
                                                          value, rest):
    joined = run_cli(capsys, "eval", *rest, f"{flag}={value}")
    assert joined[0] == 0
    assert run_cli(capsys, "eval", *rest, flag, value) == joined


# A value with a leading minus for every flag that takes one, and the flags
# each subcommand needs besides, in the = spelling
_MINUS = {"--poles": "-1,0,1", "--word": "-1", "--point": "-0.5+0.3i",
          "--path-json": "-1", "--tensor-json": "-1", "--weight": "-1",
          "--rtol": "-1e-3", "--atol": "-1e-9", "--seed": "-2",
          "--criteria": "-9"}
_TENSOR = json.dumps({"terms": [{"word": [{"pole": "-1"}, {"pole": "0"}],
                                 "coeff": {"re": "-1/2"}}]})
_NEEDS = {
    "eval": ["--poles=0,1,-1", "--word=1", "--point=0.5"],
    "mzv": ["--word=1,0"],
    "reduce": ["--poles=0,1,-1", f"--tensor-json={_TENSOR}"],
    "kernel": ["--poles=0,1,-1", f"--tensor-json={_TENSOR}"],
    "monodromy": ["--poles=0,1,-1", "--word=0", "--weight=2"],
    "periods": ["--poles=0,1"],
    "expand": ["--poles=0,1,-1", "--word=1", "--point=0", "--weight=2"],
    "kz-check": ["--poles=0,1"],
    "selftest": ["--criteria=9"],
}


def _abbreviation(flag, row) -> str:
    """The shortest prefix of flag that no other option of its row starts
    with, so that argparse reads it as flag."""
    others = [other for other in row + ["--help"] if other != flag]
    return next(flag[:n] for n in range(3, len(flag))
                if not any(other.startswith(flag[:n]) for other in others))


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, row in _ROWS.items() for flag in row
    if flag != "--csv"])
def test_every_flag_value_may_start_with_a_minus(capsys, command, flag):
    # a token that starts with one minus is the value of the flag before it,
    # under its full name or an abbreviation, as in the = spelling
    value = _MINUS[flag]
    rest = [arg for arg in _NEEDS[command] if not arg.startswith(flag + "=")]
    want = main([command, *rest, f"{flag}={value}"]), capsys.readouterr()
    for name in (flag, _abbreviation(flag, _ROWS[command])):
        assert (main([command, *rest, name, value]),
                capsys.readouterr()) == want


def test_argparse_still_has_the_negative_number_rule():
    import argparse

    # the parsers replace this attribute; were it renamed, argparse would
    # ignore the replacement and take a leading-minus value for a flag
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")


def test_a_flag_is_never_taken_for_a_value(capsys):
    assert main(["eval", "--poles", "0,1", "--point", "--word", "1"]) == 1
    assert "--point: expected one argument" in capsys.readouterr().err


def test_points_past_the_modulus_bound_are_refused(capsys):
    # numpy's complex division in the letters' evaluators overflows near
    # 1e308 (1 + i), where log z read 709.436 for 709.543 with exit 0, and a
    # path coordinate of 1.5e308 ended in an OverflowError traceback
    for word in ("0", "1"):
        err = _refused(capsys, ["eval", "--poles", "0,1", "--word", word,
                                "--point", "1e308+1e308i"])
        assert "within modulus 1e+306" in err
    path = {"base": [2, 0],
            "segments": [{"line": [[2, 0], [1.5e308, 1.5e308]]}]}
    assert main(["eval", "--poles", "0,1", "--word", "0",
                 "--path-json", json.dumps(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "within ±1e+306" in captured.err
    # inside the bound the value is right: 691.1221014884808 + pi/4 i
    for word, shift in (("0", 0), ("1", -math.pi)):
        data = run_json(capsys, "eval", "--poles", "0,1", "--word", word,
                        "--point", "1e300+1e300i")
        want = cmath.log(complex(1e300, 1e300)) + 1j * shift
        assert abs(complex(*data["value"]) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("item", [{"pole": "1"}, {"order": 1, "coeff": "1"},
                                  {"pole": "1", "order": 1}])
def test_a_principal_item_without_its_keys_is_an_input_error(capsys, item):
    # each of these escaped as a KeyError traceback
    letter = {"rf": {"poly": [], "principal": [item]}}
    tensor = json.dumps({"terms": [{"word": [letter], "coeff": {"re": "1"}}]})
    for command in ("reduce", "kernel"):
        assert main([command, "--poles", "0,1", "--tensor-json", tensor]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "principal item" in captured.err


_TINY = "1/1" + "0" * 400  # the label of 1e-400, which rounds to 0.0


def _tensor_on(*labels) -> str:
    return json.dumps({"terms": [{"word": [{"pole": lab} for lab in labels],
                                  "coeff": {"re": "1", "im": "0"}}]})


def _refused(capsys, argv) -> str:
    """The stderr of a command that must exit 2 with empty stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error:")
    assert "Traceback" not in captured.err
    return captured.err


def test_poles_that_overflow_a_float_are_domain_errors(capsys):
    for argv in (["eval", "--word", "1e400", "--point", "0.5"],
                 ["reduce", "--tensor-json", _tensor_on("0")],
                 ["kernel", "--tensor-json", _tensor_on("0")]):
        err = _refused(capsys, argv[:1] + ["--poles", "0,1e400"] + argv[1:])
        assert "overflows a float" in err


def test_an_expansion_whose_coefficients_underflow_is_refused(capsys):
    p = "1" + "0" * 200
    err = _refused(capsys, ["expand", "--poles", "0," + p, "--word", p,
                            "--point", "0"])
    assert "underflow" in err


def test_poles_that_coincide_as_floats_are_refused_by_numeric_commands(
        capsys):
    for argv in (["eval", "--word", "1e-400", "--point", "0.5"],
                 ["eval", "--word", "0", "--path-json", json.dumps(_LINE)],
                 ["expand", "--word", "1e-400", "--point", "0"],
                 ["expand", "--word", "0", "--point", "1e-400"],
                 ["monodromy", "--word", "0", "--weight", "2"],
                 ["periods"]):
        err = _refused(capsys, argv[:1] + ["--poles", "0,1e-400"] + argv[1:])
        assert "coincide as floats" in err


def test_exact_commands_keep_poles_that_coincide_as_floats(capsys):
    # the points differ exactly, and these commands never divide by their
    # float difference
    tensor = _tensor_on("0", "1e-400")
    nf = {"poles": ["0", _TINY], "basepoint": "-2-2i",
          "terms": [{"word": ["0", _TINY],
                     "f": {"poly": ["1"], "principal": []}}]}
    assert run_json(capsys, "reduce", "--poles", "0,1e-400",
                    "--tensor-json", tensor) == nf
    assert run_json(capsys, "kernel", "--poles", "0,1e-400",
                    "--tensor-json", tensor) == {"member": False,
                                                 "normal_form": nf}
    assert run_json(capsys, "kz-check", "--poles", "0,1e-400") == {
        "ok": True, "points": ["0", _TINY]}


def test_many_zeros_at_a_huge_point_print_a_finite_value(capsys):
    zeros = ",".join(["0"] * 120)
    rc = main(["eval", "--poles", "0,1", "--word", zeros, "--point", "1e300"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    re, im = json.loads(captured.out)["value"]
    assert math.isfinite(re) and math.isfinite(im)
    want = math.exp(120 * math.log(math.log(1e300)) - math.lgamma(121))
    assert abs(re - want) <= 1e-10 * want


def test_a_long_zero_word_evaluates(capsys):
    zeros = ",".join(["0"] * 1200)
    rc = main(["eval", "--poles", "0,1", "--word", zeros, "--point", "0.5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    re, im = json.loads(captured.out)["value"]
    assert abs(complex(re, im)) < 1e-300


def test_a_point_next_to_a_puncture_reports_its_own_distance(capsys):
    # the planned leg from 0.5 ends at 1e-320: its distance to 0 is the
    # endpoint's, not the 0 that start + length * direction rounds to
    rc = main(["eval", "--poles", "0,1", "--point", "1e-320", "--word", "1,0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "path passes within 1e-320 of the puncture 0" in captured.err


@pytest.mark.parametrize("point,dist", [("1e-9", "1e-09"),
                                        ("0.0005+0.0005i", "0.000707"),
                                        ("1e-320", "1e-320")])
def test_a_straight_leg_into_the_guard_is_refused_as_before(capsys, point,
                                                            dist):
    # plan_path checks a leg without a detour from the distances it read
    # while planning; the refusal is the whole path's check, word for word
    rc = main(["eval", "--poles", "0,1", "--word", "1,0", "--point", point])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert (f"path passes within {dist} of the puncture 0 (guard 0.001)"
            in captured.err)


def test_expand_order_zero_is_rejected(capsys):
    assert main(["expand", "--poles", "0,1", "--word", "0", "--point", "0",
                 "--weight", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_expand_order_over_the_matrix_cap_is_refused(capsys, monkeypatch):
    import tracemalloc

    from curvelog import local_expansion

    def never(*args, **kwargs):
        raise AssertionError("stepped a letter over the cap")

    monkeypatch.setattr(local_expansion, "_letter", never)
    tracemalloc.start()
    try:
        rc = main(["expand", "--poles", "0,1", "--word", "1,0", "--point",
                   "0", "--weight", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert ("cap of 4095 on the letter product" in captured.err
            and "Traceback" not in captured.err)
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["mzv"],
    ["eval", "--poles", "0,1", "--path-json",
     json.dumps({"base": [0.5, 0], "segments": [{"line": [[0.5, 0],
                                                          [0.5, 1]]}]})],
])
def test_a_20000_letter_word_is_refused_before_its_prefixes(argv, capsys):
    import tracemalloc

    word = ",".join(("1",) + ("0",) * 19_999)
    tracemalloc.start()
    try:
        rc = main(argv + ["--word", word])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "MiB array cap" in captured.err and "Traceback" not in captured.err
    assert peak < 8 * 2 ** 20


def test_exit_code_numeric_errors(monkeypatch, capsys):
    def boom(word):
        raise NumericError("forced")
    monkeypatch.setattr("curvelog.hyperlog.mzv", boom)
    assert main(["mzv", "--word", "1,0"]) == 3
    capsys.readouterr()


def test_the_environment_presets_no_setting(tmp_path, monkeypatch, capsys):
    # flags are the only settings: a CURVELOG_CONFIG file changes nothing
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"weight": 1, "poles": "0,1"}))
    monkeypatch.setenv("CURVELOG_CONFIG", str(conf))
    data = run_json(capsys, "monodromy", "--poles", "0,1", "--word", "0")
    assert len(data["basis"]) == 127   # weight 6 over two poles
    assert main(["periods"]) == 1
    assert "needs --poles" in capsys.readouterr().err


def test_flag_defaults_are_the_library_defaults():
    cfg = IntegratorConfig()
    assert _FLAGS["weight"]["default"] == DEFAULT_WEIGHT
    assert _FLAGS["order"]["default"] == DEFAULT_ORDER
    assert _FLAGS["rtol"]["default"] == cfg.rtol
    assert _FLAGS["atol"]["default"] == cfg.atol
    assert _FLAGS["seed"]["default"] == selftest.DEFAULT_SEED


def test_expand_defaults_to_the_library_order(capsys):
    data = run_json(capsys, "expand", "--poles", "0,1", "--word", "1",
                    "--point", "0")
    assert data["order"] == DEFAULT_ORDER


@pytest.mark.parametrize("flag, code", [
    ("--rtol=nan", 1), ("--rtol=inf", 1), ("--atol=-inf", 1),
    ("--rtol=0", 2), ("--atol=-1e-9", 2),
])
def test_tolerance_flags_exit_like_config_fields(capsys, flag, code):
    # a non-finite flag is malformed input, as in the config; a finite
    # tolerance that is not positive is refused by IntegratorConfig
    assert main(["periods", "--poles", "0,1", flag]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_console_script_is_installed():
    exe = shutil.which("curvelog")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run([exe, "mzv", "--word", "1,0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert abs(data["value"][0] + ZETA2) < 1e-9
