"""Command-line front end.

Every command emits a machine-readable document (JSON by default, CSV for
plot-ready tables) with its parameters echoed into the header, so any
number produced here is self-describing.  Exit codes: 0 success, 2 bad
parameters, 1 construction failure (with a structured error document on
stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from itertools import chain

from . import __version__
from .dimension import box_dimension, moran_dimension
from .errors import DivergiaError, ParameterError
from .funcs import tietze_family
from .ifs import CantorParams, cantor_nest, uniform_cantor
from .intervals import IntervalUnion
from .jarnik import JarnikParams, LiouvilleParams, jarnik_family, \
    liouville_family
from .maxfam import anydh_family, default_grid, divergence_estimate, \
    max_family_check
from .qam import Exp, Log, Power, comparability, exp_rate_family, \
    power_mean, qa_mean, ratio_report
from .scalars import format_scalar


def _parse_number(text: str, backend: str):
    """Parse a scalar, keeping it exact unless the float backend is forced."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse number {text!r}") from exc
    try:
        return float(value) if backend == "float" else value
    except OverflowError as exc:
        raise ParameterError(f"number {text!r} overflows a float") from exc


def _parse_floats(text: str):
    return [_parse_number(t, "float") for t in text.split(",")]


def _backend(args) -> str:
    return getattr(args, "backend", None) or \
        os.environ.get("DIVERGIA_BACKEND", "exact")


#: one C call per run of scalars, with "\x00" between the items: an
#: ASCII-escaped token never contains "\x00", starts with "[" or ends
#: with "]", so the separators and inner-list boundaries can be rewritten
_encode = json.JSONEncoder(separators=("\x00", ": ")).encode


def _scalars(items) -> bool:
    """Whether no item is a container, read from the items' types."""
    return not any(issubclass(t, (list, tuple, dict))
                   for t in set(map(type, items)))


def _dumps(node, pad="") -> str:
    """The text of ``json.dumps(node, indent=2)``.  Python walks only the
    dicts and the lists whose items are containers; a list of scalars, or
    of non-empty lists of scalars, is one ``_encode`` call.  A dict key
    that is not a ``str`` raises ``TypeError``."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(node, dict):
        if not node:
            return "{}"
        items = []
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"keys must be str, not {type(key).__name__}")
            items.append(f"{_encode(key)}: {_dumps(value, inner)}")
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    if not isinstance(node, (list, tuple)):
        return _encode(node)
    if not node:
        return "[]"
    if _scalars(node):
        body = _encode(node)[1:-1].replace("\x00", sep)
    elif all(issubclass(t, (list, tuple)) for t in set(map(type, node))) \
            and all(node) and _scalars(chain.from_iterable(node)):
        deeper = inner + "  "
        rows = _encode(node)[2:-2].replace(
            "]\x00[", "\n" + inner + "]" + sep + "[\n" + deeper)
        body = "[\n" + deeper + rows.replace("\x00", ",\n" + deeper) + \
            "\n" + inner + "]"
    else:
        body = sep.join(_dumps(item, inner) for item in node)
    return "[\n" + inner + body + "\n" + pad + "]"


def _emit(args, document, csv_rows=None, csv_header=None):
    """Write the JSON document, or under ``--format csv`` its table: the
    rows that ``csv_rows`` reads from the document, under ``csv_header``.
    The table is read only when it is written; a command without
    ``csv_rows`` has no table, and asking it for CSV is a parameter
    error."""
    fmt = getattr(args, "format", "json")
    out = getattr(args, "output", None)
    if fmt == "csv":
        if csv_rows is None:
            raise ParameterError(
                f"--format csv: this {args.command} document has no table")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows(document))
        text = buf.getvalue()
    else:
        text = _dumps(document) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_cantor(args):
    backend = _backend(args)
    theta = _parse_number(args.theta, backend)
    eps = _parse_number(args.eps, backend) if args.eps is not None else None
    params = CantorParams(theta, eps)
    nest = cantor_nest(params)
    make_level = (lambda n: uniform_cantor(params, n)) if args.uniform \
        else nest.level
    # the deepest level first checks its index before any level is built
    deepest = make_level(args.levels)
    levels = [(f"level_{n}", make_level(n) if n < args.levels else deepest)
              for n in range(args.levels + 1)]
    if backend == "float":
        levels = [(name, iu.as_float()) for name, iu in levels]
    doc = {
        "command": "cantor", "theta": format_scalar(theta),
        "eps": format_scalar(params.eps), "ratio": format_scalar(params.m),
        "uniform": bool(args.uniform), "backend": backend,
        "levels": {name: iu.to_json() for name, iu in levels},
    }
    _emit(args, doc, csv_rows=lambda doc: (
        [name, a, b] for name, level in doc["levels"].items()
        for a, b in level["components"]), csv_header=["level", "a", "b"])


#: family builders by tag, called with (theta, q_max); all but liouville
#: need a theta, and liouville takes none
_FAMILIES = {
    "cantor-tietze": lambda theta, q_max: tietze_family(
        cantor_nest(CantorParams(theta))),
    "liouville": lambda theta, q_max: liouville_family(
        LiouvilleParams(q_max=q_max)),
    "jarnik": lambda theta, q_max: jarnik_family(
        JarnikParams(theta, q_max=q_max)),
    "anydh": lambda theta, q_max: anydh_family(
        theta, liouville_params=LiouvilleParams(q_max=q_max)),
}


def _family(args):
    """The family that ``args.family`` names, with ``--theta`` parsed on
    the command's backend; every family command builds its family here."""
    tag, text = args.family, getattr(args, "theta", None)
    theta = None if text is None else _parse_number(text, _backend(args))
    build = _FAMILIES.get(tag)
    if build is None:
        raise ParameterError(
            f"unknown family tag {tag!r}; choose from "
            f"{', '.join(_FAMILIES)}")
    if (theta is None) != (tag == "liouville"):
        needs = "takes no" if theta is not None else "needs"
        raise ParameterError(f"{tag} family {needs} --theta")
    return build(theta, args.q_max)


def cmd_jarnik(args):
    """The ``jarnik`` and ``liouville`` commands: the family's rule at
    ``--n``, in a document labelled with the command's name."""
    fam = _family(args)
    pw = fam.rule(args.n)
    # the cuts take the backend of the knots, so a float family has float cuts
    cuts = default_grid(pw.domain, points=10, q_max=1)
    integrals = [[format_scalar(a), format_scalar(b),
                  float(pw.integral(a, b))]
                 for a, b in zip(cuts, cuts[1:])]
    doc = {
        "command": args.command, "family": fam.tag, "n": args.n,
        "knots": pw.to_json()["knots"],
        "subinterval_integrals": integrals,
    }
    _emit(args, doc, csv_rows=lambda doc: doc["knots"],
          csv_header=["x", "y"])


def cmd_check(args):
    """The ``check`` and ``anydh`` commands."""
    report = max_family_check(_family(args), M=args.M, n_max=args.N)
    _emit(args, {"command": args.command, **report.to_json()})


def cmd_iset(args):
    est = divergence_estimate(_family(args), M=args.M, N=args.N)
    _emit(args, {"command": "iset", **est.to_json()},
          csv_rows=lambda doc: ([x, v, int(f)] for x, v, f in doc["points"]),
          csv_header=["x", "value", "flagged"])


def cmd_dim(args):
    if args.moran:
        ratios = _parse_floats(args.moran)
        s = moran_dimension(ratios)
        _emit(args, {"command": "dim", "method": "moran",
                     "ratios": ratios, "dimension": s})
        return
    if not args.input:
        raise ParameterError("dim needs either --moran or --input")
    try:
        with open(args.input) as fh:
            A = IntervalUnion.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot read {args.input!r}: {exc!r}") from exc
    shortest = min((b - a for a, b in A.components if b > a), default=0)
    if args.scales == "auto":
        finest = float(shortest) if shortest else 1e-4
        scales, d = [], 0.25
        while d >= finest and len(scales) < 12:
            scales.append(d)
            d /= 2
        if len(scales) < 4:
            scales = [2.0 ** -k for k in range(2, 6)]
    else:
        scales = _parse_floats(args.scales)
    warn = None
    if shortest and min(scales) < float(shortest):
        warn = ("finest scale undercuts the shortest component; counts "
                "saturate below that scale")
    est = box_dimension(A, scales)
    doc = {"command": "dim", "method": "box-counting", **est.to_json()}
    if warn:
        doc["warning"] = warn
    _emit(args, doc, csv_rows=lambda doc: doc["counts"],
          csv_header=["delta", "count"])


def _parse_generator(text: str):
    kind, _, param = text.partition(":")
    kind = kind.strip().lower()
    if kind == "power":
        return Power(_parse_number(param, "float"))
    if kind == "log":
        return Log()
    if kind == "exp":
        return Exp(_parse_number(param, "float"))
    raise ParameterError(
        f"unknown generator {text!r}; use power:P, log, or exp:C")


def cmd_qam_mean(args):
    gen = _parse_generator(args.gen)
    values = _parse_floats(args.tuple)
    doc = {"command": "qam mean", "generator": args.gen, "tuple": values}
    if isinstance(gen, Power):
        doc["power_mean"] = power_mean(gen.p, values)
    doc["mean"] = qa_mean(gen, values)
    _emit(args, doc)


def cmd_qam_maximal(args):
    fam = exp_rate_family()
    lo, hi = fam.domain
    x, y, z = lo, (lo + hi) / 2, hi
    report = ratio_report(fam, x, y, z, args.N)
    doc = {
        "command": "qam maximal", "family": "exp:n", "N": args.N,
        "probe": [x, y, z],
        "final_quotient": report.quotients[-1][1],
        "tolerance": report.tol,
        "qa_maximal_indicator": report.qa_maximal_indicator,
    }
    _emit(args, doc)


def cmd_qam_compare(args):
    F = _parse_generator(args.first)
    G = _parse_generator(args.second)
    bounds = _parse_floats(args.domain)
    if len(bounds) != 2:
        raise ParameterError(
            f"--domain needs two comma-separated values, got {args.domain!r}")
    lo, hi = bounds
    if not lo < hi:
        raise ParameterError(f"--domain needs lo < hi, got {args.domain!r}")
    grid = [lo + (hi - lo) * k / 32 for k in range(33)]
    for gen, name in ((F, args.first), (G, args.second)):
        if not all(gen.in_domain(g) for g in grid):
            raise ParameterError(f"--domain {args.domain!r} leaves the "
                                 f"domain of {name!r}")
    if len(set(grid)) < len(grid):
        raise ParameterError(f"--domain {args.domain!r} does not give "
                             f"{len(grid)} distinct grid points")
    verdict = comparability(F, G, grid, seed=args.seed)
    _emit(args, {
        "command": "qam compare", "first": args.first, "second": args.second,
        "domain": [lo, hi], "seed": args.seed,
        "relation": verdict.relation,
        "mean_checks_agree": verdict.mean_checks_agree,
        "verdict": str(verdict),
    })


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divergia",
        description="Constructions around divergence sets of monotone "
                    "function families and their Hausdorff dimension.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True, backend="float parses and echoes --theta as a "
               "float; theta's value decides the family's backend"):
        p.add_argument("--output", "-o", help="write to file instead of stdout")
        if backend:
            p.add_argument("--backend", choices=["exact", "float"],
                           help=f"{backend}; default DIVERGIA_BACKEND or exact")
        if fmt:
            p.add_argument("--format", choices=["json", "csv"],
                           default="json")

    p = sub.add_parser("cantor", help="levels of the two-map nest")
    p.add_argument("--theta", required=True)
    p.add_argument("--eps")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--uniform", action="store_true",
                   help="middle-removal variant of the construction")
    common(p, backend="float parses --theta and --eps as floats and writes "
                      "the levels as floats")
    p.set_defaults(func=cmd_cantor)

    p = sub.add_parser("jarnik", help="rational-neighborhood family")
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--q-max", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_jarnik, family="jarnik")

    p = sub.add_parser("liouville", help="zero-dimension family")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--q-max", type=int, default=50)
    common(p, backend=False)
    p.set_defaults(func=cmd_jarnik, family="liouville")

    p = sub.add_parser("anydh", help="max-family with prescribed dimension")
    p.add_argument("--theta", required=True)
    p.add_argument("--M", type=float, default=10)
    p.add_argument("--N", type=int, default=30)
    p.add_argument("--q-max", type=int, default=50)
    common(p, fmt=False)
    p.set_defaults(func=cmd_check, family="anydh")

    p = sub.add_parser("check", help="max-family surrogate report")
    p.add_argument("--family", required=True,
                   help="cantor-tietze | liouville | jarnik | anydh")
    p.add_argument("--theta")
    p.add_argument("--M", type=float, default=10)
    p.add_argument("--N", type=int, default=30)
    p.add_argument("--q-max", type=int, default=50)
    common(p, fmt=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("iset", help="divergence-set estimate on a grid")
    p.add_argument("--family", required=True)
    p.add_argument("--theta")
    p.add_argument("--M", type=float, default=10)
    p.add_argument("--N", type=int, default=30)
    p.add_argument("--q-max", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_iset)

    p = sub.add_parser("dim", help="dimension of a set")
    p.add_argument("--moran", help="comma-separated contraction ratios")
    p.add_argument("--input", help="interval-union JSON file")
    p.add_argument("--scales", default="auto",
                   help="'auto' or comma-separated deltas")
    common(p, backend=False)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("qam", help="quasiarithmetic means")
    qsub = p.add_subparsers(dest="qam_command", required=True)

    q = qsub.add_parser("mean")
    q.add_argument("--gen", required=True, help="power:P | log | exp:C")
    q.add_argument("--tuple", required=True, help="comma-separated values")
    common(q, fmt=False, backend=False)
    q.set_defaults(func=cmd_qam_mean)

    q = qsub.add_parser("maximal")
    q.add_argument("--N", type=int, default=50)
    common(q, fmt=False, backend=False)
    q.set_defaults(func=cmd_qam_maximal)

    q = qsub.add_parser("compare")
    q.add_argument("--first", required=True)
    q.add_argument("--second", required=True)
    q.add_argument("--domain", default="1,2")
    q.add_argument("--seed", type=int, default=0)
    common(q, fmt=False, backend=False)
    q.set_defaults(func=cmd_qam_compare)

    return parser


#: the parser of every ``main`` call in the process, built at the first;
#: ``parse_args`` gives each call a fresh namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except ParameterError as exc:
        sys.stderr.write(json.dumps(
            {"error": "parameter", "message": str(exc)}) + "\n")
        return 2
    except DivergiaError as exc:
        sys.stderr.write(json.dumps(
            {"error": "construction", "message": str(exc)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
