"""Command line front end.

One executable, one subcommand per job.  Output is JSON on stdout (CSV for
integration traces), diagnostics go to stderr.  Exit codes: 0 success,
1 malformed input, 2 domain violation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import selftest as _selftest
from .curve_genus0 import Differential, PoleSet, RationalFunction, Section
from .errors import (BudgetError, CurvelogError, DomainError, InputError,
                     NumericError)
from .hyperlog import eval_L, mzv
from .iterint import DEFAULT_WEIGHT, IntegratorConfig, Path, integrate_words
from .local_expansion import expand_at
from .monodromy import (Loop, check_view_budget, circle_loop,
                        monodromy_operator, period_matrix)
from .reduce import default_basepoint, normal_form
from .shuffle_core import tensor_from_json, word_label, word_sort_key


def _c2j(z: complex):
    return [z.real, z.imag]


def _emit_with_matrix(head: dict, m) -> None:
    """Print head with a last "matrix" key of [re, im] pairs, written row by
    row; the bytes equal those of _emit on the whole object."""
    out = sys.stdout
    out.write(json.dumps(head)[:-1] + ', "matrix": [')
    for i, r in enumerate(m):
        out.write((", " if i else "")
                  + json.dumps(np.stack((r.real, r.imag), -1).tolist()))
    out.write("]}\n")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 1)."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="curvelog", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--poles", help="comma-separated exact puncture list")
        sp.add_argument("--word", help="comma-separated pole labels")
        sp.add_argument("--tensor-json", dest="tensor_json",
                        help="tensor payload, inline or @file")
        sp.add_argument("--point", help="evaluation point or expansion center")
        sp.add_argument("--path-json", dest="path_json",
                        help="integration path payload, inline or @file")
        sp.add_argument("--weight", type=int, help="truncation weight or order")
        sp.add_argument("--rtol", type=float, help="relative integrator tolerance")
        sp.add_argument("--atol", type=float, help="absolute integrator tolerance")
        sp.add_argument("--csv", action="store_true",
                        help="emit CSV instead of JSON where supported")
        sp.add_argument("--seed", type=int, help="seed for randomized checks")
        return sp

    add("eval", "hyperlogarithm value at a point, or along an explicit path")
    add("mzv", "regularized limit of a convergent word at one")
    add("reduce", "normal form of a differential-word tensor")
    add("kernel", "exact kernel membership of a tensor")
    add("monodromy", "loop operator on the truncated word basis")
    add("periods", "circle integrals of the section forms")
    add("expand", "log-Laurent expansion about a puncture")
    add("kz-check", "exact restriction check of the pairwise connection")
    sp = add("selftest", "run the acceptance checks")
    sp.add_argument("--criteria", help="comma-separated subset to run")
    return p


# the types a setting may take, checked on flags and config fields alike
_CONF_TYPES = {"weight": (int,), "seed": (int,), "rtol": (int, float),
               "atol": (int, float), "poles": (str, list)}


def _checked(name: str, value, source: str):
    kinds = _CONF_TYPES[name]
    # type() refuses bool; NaN compares false, a huge int without overflow
    if type(value) not in kinds or (
            float in kinds and not abs(value) <= sys.float_info.max):
        raise InputError(f"{source} cannot be {value!r}")
    return value


def _load_config() -> dict:
    path = os.environ.get("CURVELOG_CONFIG")
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            conf = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(conf, dict):
        raise InputError(f"config {path!r} must hold a JSON object")
    for name in _CONF_TYPES.keys() & conf.keys():
        _checked(name, conf[name], f"config field {name!r}")
    return conf


def _setting(args, conf: dict, name: str, default=None):
    """The flag, else the config field, else the default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return _checked(name, flag, f"--{name}")
    return conf.get(name, default)


def _make_cfg(args, conf: dict) -> IntegratorConfig:
    base = IntegratorConfig()
    return IntegratorConfig(
        rtol=float(_setting(args, conf, "rtol", base.rtol)),
        atol=float(_setting(args, conf, "atol", base.atol)))


def _require_poles(args, conf: dict) -> PoleSet:
    spec = _setting(args, conf, "poles")
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
    from .scalars import parse_exact_complex
    try:
        return complex(parse_exact_complex(text))
    except CurvelogError:
        pass
    except OverflowError as exc:
        raise InputError(f"point {text!r} overflows a float") from exc
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise InputError(f"cannot parse point {text!r}") from exc


def _parse_path(args) -> Path:
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
            return Differential(
                RationalFunction.pole_power(ps, ps.index(item["pole"]), 1))
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


def _cmd_eval(args, conf) -> int:
    ps = _require_poles(args, conf)
    word = _require_word(args, ps)
    cfg = _make_cfg(args, conf)
    if args.path_json:
        path = _parse_path(args)
        omega = Section.standard(ps).word(word)
        vals, _, traced = integrate_words(path, [omega], ps, cfg,
                                          trace=args.csv)
        if args.csv:
            writer = csv.writer(sys.stdout)
            tracked = sorted(traced[0][1], key=word_sort_key) if traced else []
            header = ["t"]
            for w in tracked:
                lab = word_label(w)
                header += [f"Re{lab}", f"Im{lab}"]
            writer.writerow(header)
            for t, row in traced:
                out = [f"{t:.12g}"]
                for w in tracked:
                    out += [f"{row[w].real:.16g}", f"{row[w].imag:.16g}"]
                writer.writerow(out)
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


def _cmd_mzv(args, conf) -> int:
    word = _require_word(args)
    val = mzv(word)
    _emit({"value": _c2j(val), "word": list(word)})
    return 0


def _cmd_reduce(args, conf) -> int:
    ps = _require_poles(args, conf)
    t = _parse_tensor(args, ps)
    nf = normal_form(t, Section.standard(ps), default_basepoint(ps))
    _emit(nf.to_json())
    return 0


def _cmd_kernel(args, conf) -> int:
    ps = _require_poles(args, conf)
    t = _parse_tensor(args, ps)
    sec = Section.standard(ps)
    x0 = default_basepoint(ps)
    nf = normal_form(t, sec, x0)
    _emit({"member": nf.is_zero, "normal_form": nf.to_json()})
    return 0


def _cmd_monodromy(args, conf) -> int:
    ps = _require_poles(args, conf)
    cfg = _make_cfg(args, conf)
    weight = _setting(args, conf, "weight", DEFAULT_WEIGHT)
    check_view_budget(len(ps.labels), weight)
    if args.path_json:
        loop = Loop(_parse_path(args))
    else:
        word = _require_word(args, ps)
        if len(word) != 1:
            raise InputError("--word must name a single pole to encircle")
        loop = circle_loop(ps, word[0])
    op = monodromy_operator(loop, Section.standard(ps), weight, cfg)
    _emit_with_matrix({"loop": loop.label,
                       "basis": [list(w) for w in op.basis]}, op.matrix)
    return 0


def _cmd_periods(args, conf) -> int:
    ps = _require_poles(args, conf)
    cfg = _make_cfg(args, conf)
    P = period_matrix(Section.standard(ps), cfg=cfg)
    _emit_with_matrix({"poles": list(ps.labels)}, P)
    return 0


def _cmd_expand(args, conf) -> int:
    ps = _require_poles(args, conf)
    word = _require_word(args, ps)
    if not args.point:
        raise InputError("expand needs --point (the expansion center)")
    order = _setting(args, conf, "weight", 24)
    exp = expand_at(word, ps, args.point, order=order,
                    cfg=_make_cfg(args, conf))
    _emit(exp.to_json())
    return 0


def _cmd_kz_check(args, conf) -> int:
    from .iterint import kz_specialization_check
    ps = _require_poles(args, conf)
    ok = kz_specialization_check(ps.points)
    _emit({"ok": bool(ok), "points": list(ps.labels)})
    return 0


def _cmd_selftest(args, conf) -> int:
    seed = _setting(args, conf, "seed", _selftest.DEFAULT_SEED)
    numbers = None
    if getattr(args, "criteria", None):
        try:
            numbers = [int(x) for x in args.criteria.split(",") if x.strip()]
        except ValueError as exc:
            raise InputError(f"bad --criteria list: {exc}") from exc
    results = _selftest.run(numbers, seed)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"ACCEPTANCE {r.number}: {status} - {r.label} ({r.detail})")
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return 0 if all_ok else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "mzv": _cmd_mzv,
    "reduce": _cmd_reduce,
    "kernel": _cmd_kernel,
    "monodromy": _cmd_monodromy,
    "periods": _cmd_periods,
    "expand": _cmd_expand,
    "kz-check": _cmd_kz_check,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        conf = _load_config()
        code = _COMMANDS[args.command](args, conf)
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
