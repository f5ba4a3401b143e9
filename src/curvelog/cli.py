"""Command line front end.

One executable, one subcommand per job.  Output is JSON on stdout (CSV for
integration traces), diagnostics go to stderr.  Exit codes: 0 success,
1 malformed input, 2 domain violation, 3 numeric failure.

Each handler imports the numeric modules it needs when it runs, so the
exact subcommands (``reduce``, ``kernel``, ``kz-check``) never load numpy.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import re
import sys

from .curve_genus0 import (Differential, PoleSet, RationalFunction, Section,
                           kz_specialization_check)
from .errors import (DEFAULT_ATOL, DEFAULT_ORDER, DEFAULT_RTOL, DEFAULT_SEED,
                     DEFAULT_WEIGHT, BudgetError, CurvelogError, DomainError,
                     InputError, NumericError)
from .reduce import default_basepoint, normal_form
from .scalars import parse_exact_complex
from .shuffle_core import tensor_from_json, word_label, word_sort_key


def _c2j(z: complex):
    return [z.real, z.imag]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 1), and
    reads a token that starts with one minus as the value of the flag
    before it (a pole, a letter, a point or a tolerance may be negative)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's rule for a negative number; set once -h is registered,
        # since an option that matches the rule would turn it off
        self._negative_number_matcher = re.compile(r"^-(?!-)")

    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="curvelog", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            kw = _FLAGS[flag]
            sp.add_argument("--" + kw.get("dest", flag), **kw)
    return p


def _finite(text: str) -> float:
    """A tolerance flag: a float that is neither NaN nor ±inf."""
    try:
        x = float(text)
    except ValueError:   # in argparse's own words for type=float
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _make_cfg(args):
    from .iterint import IntegratorConfig
    return IntegratorConfig(rtol=args.rtol, atol=args.atol)


def _require_poles(args) -> PoleSet:
    spec = args.poles
    if spec is None:
        raise InputError("this command needs --poles")
    try:
        return PoleSet.of(spec)
    except CurvelogError as exc:
        raise InputError(f"bad pole set {spec!r}: {exc}") from exc


def _require_word(args, ps: PoleSet | None = None) -> tuple:
    if not args.word:
        raise InputError("this command needs --word")
    word = tuple(lab.strip() for lab in args.word.split(",") if lab.strip())
    if not word:
        raise InputError("empty word")
    if ps is not None:
        for lab in word:
            try:
                ps.index(lab)
            except CurvelogError as exc:
                raise InputError(f"unknown pole label {lab!r}") from exc
    return word


def _payload(text: str) -> dict:
    raw = text
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {text[1:]!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON payload: {exc}") from exc


def _parse_point(text: str) -> complex:
    try:
        return complex(parse_exact_complex(text))
    except CurvelogError:
        pass
    except OverflowError as exc:
        raise InputError(f"point {text!r} overflows a float") from exc
    # an i is the imaginary unit unless it spells inf or infinity, which
    # parse as non-finite points, refused where a path is planned, like nan
    literal = re.sub(r"inf(?:inity)?|i",
                     lambda m: m[0] if len(m[0]) > 1 else "j", text,
                     flags=re.I)
    try:
        z = complex(literal)
    except ValueError as exc:
        raise InputError(f"cannot parse point {text!r}") from exc
    if cmath.isinf(complex(re.sub(r"inf(?:inity)?", "0", literal,
                                  flags=re.I))):
        # a part spelled in digits past the exact parser's digit limit
        raise InputError(f"point {text!r} overflows a float")
    return z


def _parse_path(args):
    from .iterint import Path
    try:
        return Path.from_json(_payload(args.path_json))
    except DomainError as exc:
        raise InputError(str(exc)) from exc


def _parse_tensor(args, ps: PoleSet):
    if not args.tensor_json:
        raise InputError("this command needs --tensor-json")
    obj = _payload(args.tensor_json)

    def letter(item):
        if not isinstance(item, dict):
            raise InputError(f"bad letter {item!r}")
        if "pole" in item:
            if type(item["pole"]) is not str:
                raise InputError(f"pole {item['pole']!r} is not a label "
                                 "string")
            return Differential(
                RationalFunction.pole_power(ps, item["pole"], 1))
        if "rf" in item:
            return Differential(RationalFunction.from_json(ps, item["rf"]))
        raise InputError(f"letter {item!r} needs a 'pole' or 'rf' key")

    try:
        return tensor_from_json(obj, letter)
    except (InputError, BudgetError):
        raise
    except (CurvelogError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed tensor payload: {exc}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj))


def _cmd_eval(args) -> int:
    from .hyperlog import eval_L
    from .iterint import integrate_words
    ps = _require_poles(args)
    word = _require_word(args, ps)
    cfg = _make_cfg(args)
    if args.path_json:
        path = _parse_path(args)
        omega = Section.standard(ps).word(word)
        vals, _, traced = integrate_words(path, [omega], ps, cfg,
                                          trace=args.csv)
        if args.csv:
            writer = csv.writer(sys.stdout)
            tracked = sorted(traced[0][1], key=word_sort_key) if traced else []
            writer.writerow(["t"] + [f"{part}{word_label(w)}" for w in tracked
                                     for part in ("Re", "Im")])
            for t, row in traced:
                writer.writerow([f"{t:.12g}"] + [
                    f"{x:.16g}" for w in tracked
                    for x in (row[w].real, row[w].imag)])
            return 0
        _emit({"word": list(word), "point": _c2j(path.end),
               "value": _c2j(vals[omega])})
        return 0
    if not args.point:
        raise InputError("eval needs --point or --path-json")
    if args.csv:
        raise InputError("the CSV trace needs an explicit --path-json")
    z = _parse_point(args.point)
    val = eval_L(word, z, ps, cfg)
    _emit({"word": list(word), "point": _c2j(z),
           "value": _c2j(complex(val)), "path_class": val.path_class})
    return 0


def _cmd_mzv(args) -> int:
    from .hyperlog import mzv
    word = _require_word(args)
    _emit({"value": _c2j(mzv(word)), "word": list(word)})
    return 0


def _cmd_reduce(args) -> int:
    ps = _require_poles(args)
    t = _parse_tensor(args, ps)
    nf = normal_form(t, Section.standard(ps), default_basepoint(ps))
    _emit(nf.to_json())
    return 0


def _cmd_kernel(args) -> int:
    ps = _require_poles(args)
    t = _parse_tensor(args, ps)
    nf = normal_form(t, Section.standard(ps), default_basepoint(ps))
    _emit({"member": nf.is_zero, "normal_form": nf.to_json()})
    return 0


def _cmd_monodromy(args) -> int:
    from .monodromy import Loop, circle_loop, monodromy_operator
    ps = _require_poles(args)
    cfg = _make_cfg(args)
    if args.path_json:
        loop = Loop(_parse_path(args))
    else:
        word = _require_word(args, ps)
        if len(word) != 1:
            raise InputError("--word must name a single pole to encircle")
        loop = circle_loop(ps, word[0])
    op = monodromy_operator(loop, Section.standard(ps), args.weight, cfg)
    _emit({"loop": loop.label, "basis": [list(w) for w in op.basis],
           "values": [_c2j(z) for z in op.vector.tolist()]})
    return 0


def _cmd_periods(args) -> int:
    from .monodromy import period_matrix
    ps = _require_poles(args)
    P = period_matrix(Section.standard(ps), cfg=_make_cfg(args))
    _emit({"poles": list(ps.labels),
           "matrix": [[_c2j(z) for z in row] for row in P.tolist()]})
    return 0


def _cmd_expand(args) -> int:
    from .local_expansion import expand_at
    ps = _require_poles(args)
    word = _require_word(args, ps)
    if not args.point:
        raise InputError("expand needs --point (the expansion center)")
    _emit(expand_at(word, ps, args.point,
                    order=args.weight, cfg=_make_cfg(args)).to_json())
    return 0


def _cmd_kz_check(args) -> int:
    ps = _require_poles(args)
    _emit({"ok": bool(kz_specialization_check(ps.points)),
           "points": list(ps.labels)})
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest
    numbers = None
    if args.criteria is not None:
        known = [str(num) for num, _, _ in selftest.CRITERIA]
        items = [x.strip() for x in args.criteria.split(",")]
        if not set(items) <= set(known):
            raise InputError(f"bad --criteria list {args.criteria!r}: the "
                             f"criteria are {','.join(known)}")
        numbers = [int(x) for x in items]
    results = selftest.run(numbers, args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"ACCEPTANCE {r.number}: {status} - {r.label} ({r.detail})")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


# add_argument keywords of each flag; the option is --dest where one is given
_FLAGS = {
    "poles": {"help": "comma-separated exact puncture list"},
    "word": {"help": "comma-separated pole labels"},
    "tensor-json": {"help": "tensor payload, inline or @file"},
    "point": {"help": "evaluation point or expansion center"},
    "path-json": {"help": "integration path payload, inline or @file"},
    "weight": {"type": int, "default": DEFAULT_WEIGHT,
               "help": "truncation weight, default %(default)s"},
    "order": {"dest": "weight", "type": int, "default": DEFAULT_ORDER,
              "help": "expansion order, default %(default)s"},
    "rtol": {"type": _finite, "default": DEFAULT_RTOL,
             "help": "relative integrator tolerance, default %(default)s"},
    "atol": {"type": _finite, "default": DEFAULT_ATOL,
             "help": "absolute integrator tolerance, default %(default)s"},
    "csv": {"action": "store_true", "help": "emit the path trace as CSV"},
    "seed": {"type": int, "default": DEFAULT_SEED,
             "help": "seed for randomized checks, default %(default)s"},
    "criteria": {"help": "comma-separated subset to run"},
}

# subcommand -> (handler, help, the flags it reads); no other flag parses
_SUBCOMMANDS = {
    "eval": (_cmd_eval, "hyperlogarithm value at a point, or along an "
             "explicit path", "poles word point path-json rtol atol csv"),
    "mzv": (_cmd_mzv, "regularized limit of a convergent word at one",
            "word"),
    "reduce": (_cmd_reduce, "normal form of a differential-word tensor",
               "poles tensor-json"),
    "kernel": (_cmd_kernel, "exact kernel membership of a tensor",
               "poles tensor-json"),
    "monodromy": (_cmd_monodromy, "loop operator on the truncated word basis",
                  "poles word path-json weight rtol atol"),
    "periods": (_cmd_periods, "circle integrals of the section forms",
                "poles rtol atol"),
    "expand": (_cmd_expand, "log-Laurent expansion about a puncture",
               "poles word point order rtol atol"),
    "kz-check": (_cmd_kz_check, "exact restriction check of the pairwise "
                 "connection", "poles"),
    "selftest": (_cmd_selftest, "run the acceptance checks", "seed criteria"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = _SUBCOMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except CurvelogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
