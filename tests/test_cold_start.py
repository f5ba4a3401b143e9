"""The package binds its names on first use, and exact work loads no numpy."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ci_reports
import curvelog

HERE = pathlib.Path(__file__).resolve().parent
SRC = pathlib.Path(curvelog.__file__).resolve().parent.parent

# a child's first lines: numpy cannot be imported, as if it were absent
NO_NUMPY = """
import json
import sys


class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoNumpy())


def loaded():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] in ("curvelog", "numpy"))
"""

# the exact subcommands' stdout on their README examples, before the
# package bound its names on first use
EXACT_STDOUT = {
    "reduce": '{"poles": ["0"], "basepoint": "-2-2i", "terms": [{"word": [], '
              '"f": {"poly": ["-1/4+1/4i"], "principal": [{"pole": "0", '
              '"order": 1, "coeff": "-1"}]}}]}\n',
    "kernel": '{"member": true, "normal_form": {"poles": ["0", "1"], '
              '"basepoint": "-2-2i", "terms": []}}\n',
    "kz-check": '{"ok": true, "points": ["1/3", "1/2"]}\n',
}


def child(code: str):
    """What a fresh process prints as JSON after running code."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_submodule_and_no_numpy():
    modules, blocked = child(NO_NUMPY + """
import curvelog
modules = loaded()
try:
    import numpy
except ImportError:
    blocked = True
else:
    blocked = False
print(json.dumps([modules, blocked]))
""")
    assert modules == ["curvelog"]
    assert blocked


def test_exact_subcommands_run_without_numpy():
    argvs = {command: [command, *ci_reports.EXAMPLES[command]]
             for command in EXACT_STDOUT}
    results, modules = child(NO_NUMPY + f"""
import contextlib
import io
from curvelog.cli import main
results = {{}}
for command, argv in {argvs!r}.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results[command] = [code, out.getvalue()]
print(json.dumps([results, loaded()]))
""")
    assert results == {command: [0, out]
                       for command, out in EXACT_STDOUT.items()}
    assert modules == ["curvelog", "curvelog.cli", "curvelog.curve_genus0",
                       "curvelog.errors", "curvelog.reduce",
                       "curvelog.scalars", "curvelog.shuffle_core"]


def test_importing_a_submodule_binds_all_its_names():
    bound = child("""
import json
import curvelog
import curvelog.reduce
print(json.dumps(sorted(vars(curvelog).keys() & set(curvelog.__all__))))
""")
    assert bound == sorted(curvelog._EXPORTS["reduce"]
                           + curvelog._EXPORTS["curve_genus0"]
                           + curvelog._EXPORTS["errors"]
                           + curvelog._EXPORTS["scalars"]
                           + curvelog._EXPORTS["shuffle_core"])


def test_every_public_name_is_its_modules_binding():
    homes = curvelog._EXPORTS
    assert len(curvelog.__all__) == 63
    for home, names in homes.items():
        module = importlib.import_module(f"curvelog.{home}")
        assert getattr(curvelog, home) is module
        for name in names:
            value = getattr(curvelog, name)
            assert value is vars(module)[name]
            assert value.__module__ == module.__name__
    assert set(curvelog.__all__) <= set(dir(curvelog))


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="no attribute 'eval_l'"):
        curvelog.eval_l
    assert not hasattr(curvelog, "MonodromyOperator")


def test_the_tracer_restores_names_first_read_while_installed():
    # the tracer wraps every binding of a loaded module; a name the package
    # had not read before install is bound when its module loads, so it is
    # wrapped and restored like every other
    during, after = child(f"""
import json
import sys
sys.path.insert(0, {str(HERE.parent / "bench")!r})
import curvelog
from tracer import Tracer
tracer = Tracer()
tracer.install()
during = hasattr(curvelog.eval_L, "__wrapped__")
tracer.uninstall()
after = [name for name in curvelog.__all__
         if hasattr(getattr(curvelog, name), "__wrapped__")]
print(json.dumps([during, after]))
""")
    assert during and after == []
