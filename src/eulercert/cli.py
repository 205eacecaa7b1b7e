"""Command-line entry point.

One invocation carries one workspace configuration (expected dimension and
norm), given by --config and overridden by flags; a config key other than
these is an input error.
Outputs are deterministic: identical invocations print identical bytes.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import jsonio
from .certify import MetricKind, concentrate_to_point, link, probe_metric, verify
from .constructible import euler_integral, oracle_integral, pushforward
from .distance import sum_bound
from .flags import build_flag, graded_sheaf
from .geometry import Norm, decimal_up, reach
from .jsonio import SchemaError
from .sheafsum import local_euler


#: each setting's check, for a config file value and a flag alike
_SETTINGS = {"dimension": jsonio.parse_dimension, "norm": jsonio.parse_norm}


def _load_config(args: argparse.Namespace) -> dict:
    """The workspace settings: the config file's, overridden by flags."""
    settings = {"dimension": None, "norm": Norm.L2}
    if args.config:
        raw = _read_json(args.config)
        if not isinstance(raw, dict):
            raise SchemaError(f"{args.config}: config must be a JSON object")
        try:
            unknown = [key for key in raw if key not in _SETTINGS]
            if unknown:
                raise SchemaError(f"unknown key: {unknown[0]!r}")
            settings.update((key, _SETTINGS[key](value)) for key, value in raw.items())
        except SchemaError as exc:
            raise SchemaError(f"{args.config}: {exc}") from None
    # a flag given as 0 or "" is still given, and is rejected if out of range
    flags = {key: getattr(args, key) for key in _SETTINGS if getattr(args, key) is not None}
    settings.update((key, _SETTINGS[key](value)) for key, value in flags.items())
    return settings


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file") from None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON ({exc.msg} at line {exc.lineno})") from None
    except RecursionError:
        raise SchemaError(f"{path}: malformed JSON (nested too deeply)") from None
    except ValueError as exc:
        # an integer literal over the interpreter's digit limit
        raise SchemaError(f"{path}: malformed JSON ({exc})") from None


def _load(path: str, parse, dimension: Optional[int] = None):
    """Parse the JSON file at path, naming the file in any parse error and
    when the value's ambient dimension is not the configured `dimension`.

    A model constructor rejects a value with ValueError, of which SchemaError
    is one kind; `_read_json` names the file itself.
    """
    raw = _read_json(path)
    with _reading(path):
        value = parse(raw)
    if dimension is not None and value.dimension != dimension:
        raise SchemaError(f"{path}: dimension {value.dimension} != configured {dimension}")
    return value


@contextlib.contextmanager
def _reading(path: str):
    """Name the file at path in a ValueError raised while its value is read:
    by the parse, or by a reader that expands a flag block of it."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _parse_point(text: str):
    return tuple(jsonio.parse_rational(part) for part in text.split(","))


def _emit(obj: dict, out: Optional[str]) -> None:
    text = json.dumps(obj)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SchemaError(f"{out}: cannot write ({exc.strerror})") from None
    else:
        print(text)


# argparse takes a value such as -1,0 for an option, unless "=" joins it to its own
_TARGET_HELP = "point x,y,... (default: the origin); write --target=-1,0 if x < 0"


@functools.cache  # built once per process; each parse_args returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eulercert", description=__doc__)
    ap.add_argument("--config", help="JSON workspace config file")
    ap.add_argument("--dimension", type=int, help="expected ambient dimension (validation)")
    ap.add_argument("--norm", choices=[n.value for n in Norm], help="workspace norm")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="Euler integral of a constructible function")
    p.add_argument("cf")
    p = sub.add_parser("oracle-integrate", help="independent cell-complex Euler integral")
    p.add_argument("cf")
    p = sub.add_parser("pushforward", help="direct image along an affine map")
    p.add_argument("cf")
    p.add_argument("--map", required=True)
    p = sub.add_parser("chi", help="local Euler characteristic of a sheaf sum")
    p.add_argument("sheaf")
    p = sub.add_parser("flag", help="graded sheaf of a homothety flag")
    p.add_argument("polytope")
    p.add_argument("--center", required=True, help="point x,y,...; write --center=-1/2,0 if x < 0")
    p.add_argument("--steps", required=True, type=int)
    p = sub.add_parser("bound", help="certified convolution-distance bound")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("concentrate", help="certificate collapsing a function to a point mass")
    p.add_argument("cf")
    p.add_argument("--target", default=None, help=_TARGET_HELP)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--out")
    p = sub.add_parser("link", help="certificate chaining two functions of equal integral")
    p.add_argument("cf1")
    p.add_argument("cf2")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--out")
    p = sub.add_parser("verify", help="independently re-check a certificate")
    p.add_argument("cert")
    p = sub.add_parser("probe", help="bound vs metric table over a shrinking schedule")
    p.add_argument("cf")
    p.add_argument("--metric", required=True, choices=[k.value for k in MetricKind])
    p.add_argument("--target", default=None, help=_TARGET_HELP)
    p.add_argument("--schedule", required=True)
    return ap


def run(argv: Sequence[str]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args, **_load_config(args))
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, dimension: Optional[int], norm: Norm) -> int:
    cmd = args.command
    # every value loaded but the affine map is checked against --dimension
    load = functools.partial(_load, dimension=dimension)
    if cmd == "integrate":
        print(euler_integral(load(args.cf, jsonio.cf_from_json)))
        return 0
    if cmd == "oracle-integrate":
        print(oracle_integral(load(args.cf, jsonio.cf_from_json)))
        return 0
    if cmd == "pushforward":
        f = load(args.cf, jsonio.cf_from_json)
        m = _load(args.map, jsonio.affine_map_from_json)
        _emit(jsonio.cf_to_json(pushforward(f, m)), None)
        return 0
    if cmd == "chi":
        sheaf = load(args.sheaf, jsonio.sheaf_from_json)
        with _reading(args.sheaf):
            chi = local_euler(sheaf)
        _emit(jsonio.cf_to_json(chi), None)
        return 0
    if cmd == "flag":
        poly = load(args.polytope, jsonio.polytope_from_json)
        fl = build_flag(poly, _parse_point(args.center), args.steps)
        eta = reach(poly, fl.center, norm) / fl.steps
        _emit({"eta": eta.decimal_up(), "sheaf": jsonio.sheaf_to_json(graded_sheaf(fl))}, None)
        return 0
    if cmd == "bound":
        left = load(args.left, jsonio.sheaf_from_json)
        right = load(args.right, jsonio.sheaf_from_json)
        for path, sheaf in ((args.left, left), (args.right, right)):
            with _reading(path):
                sheaf.summands  # a block sum is expanded here
        bound, matching = sum_bound(left, right, norm)
        print(bound.decimal_up())
        print("pairs " + " ".join(f"{i}-{j}" for i, j in matching.pairs))
        print("unmatched_f " + " ".join(str(i) for i in matching.unmatched_left))
        print("unmatched_g " + " ".join(str(j) for j in matching.unmatched_right))
        return 0
    if cmd == "concentrate":
        f = load(args.cf, jsonio.cf_from_json)
        target = (Fraction(0),) * f.dimension if args.target is None else _parse_point(args.target)
        cert = concentrate_to_point(f, target, jsonio.parse_rational(args.epsilon), norm)
        _emit(jsonio.cert_to_json(cert), args.out)
        return 0
    if cmd == "link":
        f = load(args.cf1, jsonio.cf_from_json)
        g = load(args.cf2, jsonio.cf_from_json)
        cert = link(f, g, jsonio.parse_rational(args.epsilon), norm)
        _emit(jsonio.cert_to_json(cert), args.out)
        return 0
    if cmd == "verify":
        cert = load(args.cert, jsonio.cert_from_json)
        if cert.norm is None:
            print(f"note: {args.cert}: records no norm (version 1); verifying under {norm.value}", file=sys.stderr)
            cert = dataclasses.replace(cert, norm=norm)
        elif cert.norm is not norm:
            raise SchemaError(f"{args.cert}: certificate built under norm {cert.norm.value}, but the configured norm is {norm.value}")
        with _reading(args.cert):
            report = verify(cert)
        if report.passed:
            print("PASS")
            return 0
        print("FAIL")
        for item in report.failures:
            print(f"- {item}")
        return 1
    if cmd == "probe":
        f = load(args.cf, jsonio.cf_from_json)
        target = (Fraction(0),) * f.dimension if args.target is None else _parse_point(args.target)
        schedule = [jsonio.parse_rational(part) for part in args.schedule.split(",")]
        rows = probe_metric(MetricKind(args.metric), f, target, schedule, norm)
        print("epsilon,dc_bound,delta")
        for row in rows:
            print(f"{decimal_up(row.epsilon)},{row.dc_bound.decimal_up()},{row.delta.decimal_up()}")
        return 0
    raise SchemaError(f"unknown command: {cmd}")


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # or the flush at exit fails again
        print(f"error: stdout: cannot write ({exc.strerror})", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
