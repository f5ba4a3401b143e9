import json
import math
import shutil
import subprocess

import pytest

from curvelog import NumericError
from curvelog.cli import main

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
    i = basis.index(("0",))
    j = basis.index(())
    re, im = data["matrix"][i][j]
    assert abs(re) < 1e-8 and abs(im - 2 * math.pi) < 1e-8


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
    assert main(["eval", "--poles", "0,1", "--word", "0,1",
                 "--point", "1e400"]) == 1
    capsys.readouterr()
    assert main(["eval", "--poles", "0,1", "--word", "1",
                 "--point", "-1e400+2i"]) == 1
    capsys.readouterr()


def test_expand_order_zero_is_rejected(capsys):
    assert main(["expand", "--poles", "0,1", "--word", "0", "--point", "0",
                 "--weight", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_exit_code_numeric_errors(monkeypatch, capsys):
    def boom(word, order=30):
        raise NumericError("forced")
    monkeypatch.setattr("curvelog.cli.mzv", boom)
    assert main(["mzv", "--word", "1,0"]) == 3
    capsys.readouterr()


def test_config_file_supplies_defaults(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"weight": 1, "poles": "0,1"}))
    monkeypatch.setenv("CURVELOG_CONFIG", str(conf))
    data = run_json(capsys, "monodromy", "--word", "0")
    assert len(data["basis"]) == 3   # weight 1 over two poles
    # explicit flags win over the config file
    data = run_json(capsys, "monodromy", "--word", "0", "--weight", "2")
    assert len(data["basis"]) == 7


def test_config_file_must_be_json(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("not json")
    monkeypatch.setenv("CURVELOG_CONFIG", str(conf))
    assert main(["periods", "--poles", "0,1"]) == 1
    capsys.readouterr()


def test_console_script_is_installed():
    exe = shutil.which("curvelog")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run([exe, "mzv", "--word", "1,0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert abs(data["value"][0] + ZETA2) < 1e-9
