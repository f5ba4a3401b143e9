"""How long a fresh process takes to start curvelog and run one command.

Each command is launched as a new Python process, and the rounds are
interleaved: every round launches each command once, in a fixed order, so
a drift of the machine's speed hits every row alike.  The rows are the
interpreter alone, ``import numpy``, ``import curvelog``, and every
subcommand on its README example, run as ``python -m curvelog.cli``.  The
package is byte-compiled first, so no launch pays for compiling it.  The
report goes to stdout as markdown, with the median wall time of each row:

    PYTHONPATH=src python tests/cold_start.py

It needs nothing beyond the standard library and the package's own
dependencies.
"""

import compileall
import importlib.util
import statistics
import subprocess
import sys
import time

# the launches of each row: enough for a median that a busy machine's
# outliers do not move
LAUNCHES = 15

# the README's kernel example: three words whose normal form is zero
KERNEL_TENSOR = """{"terms": [
  {"word": [{"pole": "0"}, {"rf": {"poly": ["1"], "principal": []}},
            {"pole": "1"}],                          "coeff": {"re": "1"}},
  {"word": [{"pole": "0"},
            {"rf": {"poly": ["1"],
                    "principal": [{"pole": "1", "order": 1, "coeff": "1"}]}}],
                                                     "coeff": {"re": "-1"}},
  {"word": [{"rf": {"poly": ["1"], "principal": []}}, {"pole": "1"}],
                                                     "coeff": {"re": "1"}}]}"""

# the README's reduce example: the one-letter word dz / z^2
REDUCE_TENSOR = ('{"terms": [{"word": [{"rf": {"poly": [], "principal": '
                 '[{"pole": "0", "order": 2, "coeff": "1"}]}}], '
                 '"coeff": {"re": "1"}}]}')

# each subcommand's arguments in the README's examples
EXAMPLES = {
    "eval": ["--poles", "0,1", "--word", "0,1", "--point", "1/2"],
    "mzv": ["--word", "1,0"],
    "reduce": ["--poles", "0", "--tensor-json", REDUCE_TENSOR],
    "kernel": ["--poles", "0,1", "--tensor-json", KERNEL_TENSOR],
    "monodromy": ["--poles", "0,1", "--word", "0", "--weight", "1"],
    "periods": ["--poles", "0,1"],
    "expand": ["--poles", "0,1", "--word", "0,1", "--point", "0",
               "--weight", "4"],
    "kz-check": ["--poles", "1/3,1/2"],
    "selftest": ["--criteria", "1,2"],
}


def launches() -> dict:
    """The argument list of each row, by its name in the report."""
    rows = {"python -c pass": ["-c", "pass"],
            "import numpy": ["-c", "import numpy"],
            "import curvelog": ["-c", "import curvelog"]}
    for command, args in EXAMPLES.items():
        rows[f"curvelog {command}"] = ["-m", "curvelog.cli", command, *args]
    return rows


def measure(rounds: int) -> dict:
    """The wall times in ms of each row's launches, over interleaved
    rounds; a launch that exits with an error stops the report."""
    package = importlib.util.find_spec("curvelog").submodule_search_locations
    compileall.compile_dir(package[0], quiet=1)
    rows = launches()
    times = {name: [] for name in rows}
    for _ in range(rounds):
        for name, args in rows.items():
            t = time.perf_counter()
            subprocess.run([sys.executable, *args], check=True,
                           stdout=subprocess.DEVNULL)
            times[name].append(1e3 * (time.perf_counter() - t))
    return times


def report(rounds: int) -> list:
    """The report's lines: a header, a blank line, one row per launch."""
    times = measure(rounds)
    return [f"cold start, median wall time of {rounds} interleaved "
            f"launches per row (a new process each, python -m "
            f"curvelog.cli for a subcommand):", "",
            *(f"- {name}: {statistics.median(ms):.1f} ms"
              for name, ms in times.items())]


if __name__ == "__main__":
    print("\n".join(report(LAUNCHES)))
