"""Command line front end: parse a hypersurface file, run a search or an
audit, write one report.

Input files are two logical parts: a header line ``p=<prime> m=<int>
n=<int>`` and then one homogeneous polynomial in the grammar of
:mod:`transverse.poly` (which may wrap across the remaining lines).  All
results are emitted as a single JSON document, or as the flat CSV mirror
for counting reports.

Every command is one parser leaf that declares exactly the flags its
handler reads, so a flag the command would ignore is a usage error.
Written reports are reproducible byte for byte from the input and the
seed: wall-clock fields inside reports are zeroed before writing, and the
one-line timing summary goes to stderr instead.  The run's caps are the
current caps (``config.caps_scope``) for its duration, so every layer
honours them.

Exit status: 0 for success (including a search that exhausted below its
guarantee threshold), 1 for usage and input errors, 2 when a counting
theorem was violated: a gated search exhausted, an observed count beat
its bound, or an inequality transcription check found a counterexample.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import audit, config, gf, locus, poly, search

# fixed, not entropy: a rerun with no --seed must reproduce bit for bit
DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class UsageError(ValueError):
    """Bad flags or flag combinations; maps to exit status 1."""


class InputFileError(ValueError):
    """A problem inside an input file, located by line and column."""

    def __init__(self, path, line, column, message):
        super().__init__(f"{path}:{line}:{column}: {message}")
        self.path = path
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# input files

_HEADER = re.compile(r"p\s*=\s*(\d+)\s+m\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s*$")


def parse_input(path):
    """Read a hypersurface file: (field, hypersurface).

    Header ``p=<prime> m=<int> n=<int>`` on the first nonblank line, then
    one homogeneous polynomial on the following lines.  Errors carry the
    file position; inhomogeneous or identically zero polynomials and
    coefficients outside the field are rejected.
    """
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    lines = raw.splitlines()
    numbered = [
        (i + 1, line) for i, line in enumerate(lines) if line.strip()
    ]
    if not numbered:
        raise InputFileError(path, 1, 1, "empty input file")
    header_line, header_text = numbered[0]
    m = _HEADER.match(header_text.strip())
    if not m:
        raise InputFileError(
            path, header_line, 1,
            "expected header 'p=<prime> m=<int> n=<int>', "
            f"got {header_text.strip()!r}",
        )
    p, ext_deg, n = (int(g) for g in m.groups())
    if ext_deg < 1:
        raise InputFileError(path, header_line, 1, "m must be at least 1")
    if n < 1:
        raise InputFileError(path, header_line, 1, "n must be at least 1")
    try:
        field = gf.field_create(p, ext_deg)
    except (ValueError, config.CapExceededError) as exc:
        raise InputFileError(path, header_line, 1, str(exc)) from exc
    # the polynomial text keeps its line breaks, so an offset into it maps
    # straight back to a line and a column of the file
    body = "\n".join(lines[header_line:])
    if not body.strip():
        raise InputFileError(
            path, header_line, len(header_text) + 1,
            "no polynomial after the header",
        )

    def position(offset):
        start = body.rfind("\n", 0, offset) + 1
        return header_line + 1 + body.count("\n", 0, offset), offset - start + 1

    try:
        form = poly.parse_form(field, body, nvars=n + 1)
    except poly.ParseError as exc:
        raise InputFileError(path, *position(exc.offset), exc.reason) from exc
    if form.is_zero():
        raise InputFileError(
            path, *position(len(body) - len(body.lstrip())),
            "polynomial is identically zero",
        )
    return field, locus.Hypersurface(form)


# ---------------------------------------------------------------------------
# report plumbing


def _strip_runtimes(obj):
    """Zero every runtime_ms in a nested payload, for byte-identical runs."""
    if isinstance(obj, dict):
        return {
            k: 0 if k == "runtime_ms" else _strip_runtimes(v)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_strip_runtimes(v) for v in obj]
    return obj


def _emit(args, payload: dict, reports=None) -> None:
    """Write the run's report to --out or stdout in the requested format.

    CSV is the flat mirror and only carries the counting reports; commands
    without them fall back to a one-row summary.
    """
    if args.format == "csv":
        rows = audit.flatten_reports(reports) if reports else [payload]
        rows = [_strip_runtimes(r if isinstance(r, dict) else r.to_dict())
                for r in rows]
        text = _csv_text(rows)
    else:
        body = dict(payload)
        if reports is not None:
            body["reports"] = audit.flatten_reports(reports)
        text = json.dumps(_strip_runtimes(body), indent=2, sort_keys=True)
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# the report schema flat: one column per params key
_PARAM_FIELDS = ("n", "d", "q", "r", "t")
_REPORT_FIELDS = (
    "experiment", *_PARAM_FIELDS,
    "observed", "bound", "bound_formula", "citation",
    "verdict", "runtime_ms", "seed",
)


def _csv_text(rows) -> str:
    """Counting reports in the flat schema columns; any other rows under
    their sorted keys.  None is written as an empty cell."""
    import csv
    import io

    if rows and "experiment" in rows[0]:
        fields = _REPORT_FIELDS
        rows = [
            {k: (r.get("params", {}) if k in _PARAM_FIELDS else r).get(k)
             for k in fields}
            for r in rows
        ]
    else:
        fields = sorted({k for r in rows for k in r})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# command handlers: each reads its leaf's flags from the parsed namespace
# and returns (exit status, one-line summary for stderr)


def _run_find_line(args):
    field, X = parse_input(args.input)
    outcome = search.find_transverse_line_reduced(X, seed=args.seed)
    return _finish_search(args, field, X, outcome)


def _run_find_flag(args):
    field, X = parse_input(args.input)
    outcome = search.find_very_transverse_flag(X, args.r, seed=args.seed)
    return _finish_search(args, field, X, outcome)


def _run_find_reduced(args):
    field, X = parse_input(args.input)
    if args.r == X.ambient - 1:
        outcome = search.find_reduced_hyperplane(X, seed=args.seed)
    else:
        outcome = search.find_reduced_plane_section_chain(X, args.r, seed=args.seed)
    return _finish_search(args, field, X, outcome)


def _finish_search(args, field, X, outcome):
    d = outcome.to_dict()
    if args.format == "csv":
        payload = {
            "command": args.command,
            "kind": d["kind"],
            "found": json.dumps(d["found"], sort_keys=True)
            if isinstance(d["found"], dict)
            else d["found"],
            "tested": d["tested"],
            "gate_satisfied": d["gate"].get("satisfied"),
            "seed": d["seed"],
        }
    else:
        payload = {
            "command": args.command,
            "input": args.input,
            "field": {"p": field.p, "m": field.m, "order": field.order},
            "ambient": X.ambient,
            "degree": X.degree,
            "outcome": d,
        }
    _emit(args, payload)
    return EXIT_OK, "found" if outcome.succeeded() else "exhausted"


def _run_count_lines(args):
    _, X = parse_input(args.input)
    if X.ambient != 2:
        raise UsageError("count lines needs a plane curve (n = 2)")
    fixture = audit.CurveFixture([X.form])
    return _finish_reports(args, [audit.count_nontransverse_lines(
        fixture, seed=args.seed, claim_irreducible=False
    )])


def _run_count_hyperplanes(args):
    _, X = parse_input(args.input)
    return _finish_reports(
        args, [audit.count_bad_hyperplanes(X, args.t, seed=args.seed)]
    )


def _run_count_superspaces(args):
    _, X = parse_input(args.input)
    flag = search.find_very_transverse_flag(X, args.r - 1, seed=args.seed)
    if not flag.succeeded():
        _emit(args, {
            "command": args.command,
            "input": args.input,
            "note": "no very transverse base flag found; nothing to count",
            "outcome": flag.to_dict(),
        })
        return EXIT_OK, "no base flag"
    return _finish_reports(args, [audit.count_bad_superspaces(
        X, flag.found.top, args.r, seed=args.seed
    )])


def _finish_reports(args, reports):
    flat = audit.flatten_reports(reports)
    failed = [r for r in flat if r.get("verdict") == "fail"]
    _emit(args, {
        "command": args.command,
        "input": getattr(args, "input", None),
        "all_pass": not failed,
    }, reports=reports)
    if failed:
        return EXIT_VIOLATION, f"{len(failed)} bound(s) violated"
    return EXIT_OK, "all bounds hold"


def inequality_grid(nmax: int, dmax: int) -> list:
    """The standard (n, d, r, q) grid: each field size at the gate, one
    above it and seven above it."""
    return sorted(
        {
            (n, d, r, q)
            for n in range(2, nmax + 1)
            for d in range(2, dmax + 1)
            for r in range(n)
            for q in (
                (n - r) * d * (d - 1) ** r,
                (n - r) * d * (d - 1) ** r + 1,
                (n - r) * d * (d - 1) ** r + 7,
            )
        }
    )


def _inequality_report(nmax: int, dmax: int) -> dict:
    """check_inequality_lemmas over the standard grid, as one report row:
    observed counterexamples against the only acceptable bound, zero."""
    grid = inequality_grid(nmax, dmax)
    result = search.check_inequality_lemmas(grid)
    bad = result["counterexamples"]
    return {
        "experiment": "inequality-lemmas",
        "params": {"n": nmax, "d": dmax, "q": None, "r": None, "t": None},
        "observed": len(bad),
        "bound": 0,
        "bound_formula": "0",
        "citation": "counterexamples to the gate arithmetic on the full grid",
        "verdict": "pass" if not bad else "fail",
        "runtime_ms": 0,
        "seed": None,
        "grid_points": len(grid),
        "counterexamples": bad,
    }


def _run_audit_all(args):
    reports = battery(args.seed)
    reports.append(_inequality_report(args.nmax, args.dmax))
    reports.append(
        audit.separation_search(args.samples, 3, 3, 2, r=1, seed=args.seed)
    )
    return _finish_reports(args, reports)


def _run_audit_space_filling(args):
    return _finish_reports(
        args, [audit.audit_space_filling(args.n, args.q, args.d)]
    )


def _run_audit_inequalities(args):
    return _finish_reports(args, [_inequality_report(args.nmax, args.dmax)])


def _run_audit_separation(args):
    return _finish_reports(args, [audit.separation_search(
        args.samples, args.n, args.d, args.q, r=args.r, seed=args.seed
    )])


def battery(seed: int):
    """The built-in fixture battery: every counting bound the search gates
    rely on, on the smallest fixtures that exercise it."""
    F5 = gf.field_create(5)
    F7 = gf.field_create(7)
    F13 = gf.field_create(13)
    reports = []

    conic = audit.CurveFixture.from_strings(F5, ["x0*x2 - x1^2"])
    reports.append(audit.count_nontransverse_lines(conic, seed=seed))

    cusp = audit.CurveFixture.from_strings(F7, ["x1^2*x2 - x0^3"])
    reports.append(audit.count_nontransverse_lines(cusp, seed=seed))

    lines3 = audit.CurveFixture.from_strings(F7, ["x0", "x1", "x0 + x1"])
    reports.append(audit.count_nontransverse_lines(lines3, seed=seed))

    two_planes = locus.Hypersurface(poly.parse_form(F5, "x0*x1", 4))
    reports.append(audit.count_bad_hyperplanes(two_planes, 2, seed=seed))

    quadric = locus.Hypersurface(poly.parse_form(F5, "x0*x3 - x1*x2"))
    reports.append(audit.count_bad_hyperplanes(quadric, 0, seed=seed))

    cubic = locus.Hypersurface(
        poly.parse_form(F13, "x0^3 + x1^3 + x2^3 + x3^3")
    )
    base = search.find_very_transverse_flag(cubic, 0, seed=seed)
    reports.append(audit.count_bad_superspaces(cubic, base.found.top, 1, seed=seed))

    reports.append(audit.audit_space_filling(2, 2, 2))
    return reports


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting, and matches no flag by prefix
    (so ``audit all --n 9`` is refused, not read as ``--nmax 9``).
    Subparsers are built from the same class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("caps must be positive")
    return value


def _leaf(subs, name, run, about, reads_input=False):
    """One command bound to its handler, with the run-level flags."""
    sp = subs.add_parser(name, help=about)
    sp.set_defaults(run=run)
    if reads_input:
        sp.add_argument("--input", required=True,
                        help="hypersurface file (header + polynomial)")
    sp.add_argument("--out", help="write the report here instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--max-field-bits", type=_positive,
                    default=config.Caps.max_field_bits,
                    help="largest allowed field order, as a bit length")
    sp.add_argument("--max-enum", type=_positive,
                    default=config.Caps.max_enum,
                    help="largest allowed enumeration size")
    return sp


def build_parser() -> _Parser:
    parser = _Parser(prog="transverse", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    _leaf(commands, "find-line", _run_find_line,
          "transverse line to a reduced curve", reads_input=True)
    sp = _leaf(commands, "find-flag", _run_find_flag,
               "very transverse flag of subspaces", reads_input=True)
    sp.add_argument("--r", type=int, required=True, help="top flag dimension")
    sp = _leaf(commands, "find-reduced", _run_find_reduced,
               "r-plane with a reduced section", reads_input=True)
    sp.add_argument("--r", type=int, required=True, help="plane dimension")

    counts = commands.add_parser(
        "count", help="exact census against a bound"
    ).add_subparsers(dest="what", required=True)
    _leaf(counts, "lines", _run_count_lines,
          "non-transverse lines to a plane curve", reads_input=True)
    sp = _leaf(counts, "hyperplanes", _run_count_hyperplanes,
               "hyperplanes with a bad section", reads_input=True)
    sp.add_argument("--t", type=int, default=0,
                    help="declared number of hyperplane components")
    sp = _leaf(counts, "superspaces", _run_count_superspaces,
               "bad superspaces of a very transverse subspace",
               reads_input=True)
    sp.add_argument("--r", type=int, required=True, help="superspace dimension")

    audits = commands.add_parser(
        "audit", help="built-in bound audits"
    ).add_subparsers(dest="what", required=True)
    sp = _leaf(audits, "all", _run_audit_all, "the fixed fixture battery")
    sp.add_argument("--nmax", type=int, default=6, help="grid limit for inequalities")
    sp.add_argument("--dmax", type=int, default=5, help="grid limit for inequalities")
    sp.add_argument("--samples", type=int, default=3, help="separation sample count")
    sp = _leaf(audits, "space-filling", _run_audit_space_filling,
               "space-filling degree floor")
    sp.add_argument("--n", type=int, default=2, help="ambient projective dimension")
    sp.add_argument("--q", type=int, default=2, help="field order")
    sp.add_argument("--d", type=int, default=2, help="degree limit")
    sp = _leaf(audits, "inequalities", _run_audit_inequalities,
               "the gate inequalities on the standard grid")
    sp.add_argument("--nmax", type=int, default=6, help="grid limit for inequalities")
    sp.add_argument("--dmax", type=int, default=5, help="grid limit for inequalities")
    sp = _leaf(audits, "separation", _run_audit_separation,
               "randomized very-transverse separation search")
    sp.add_argument("--samples", type=int, default=5, help="randomized sample count")
    sp.add_argument("--n", type=int, default=3, help="ambient projective dimension")
    sp.add_argument("--d", type=int, default=3, help="degree")
    sp.add_argument("--q", type=int, default=2, help="field order")
    sp.add_argument("--r", type=int, default=1, help="subspace dimension")
    return parser


def main(argv=None) -> int:
    """Run one command; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        caps = config.Caps(max_field_bits=args.max_field_bits,
                           max_enum=args.max_enum)
        with config.caps_scope(caps):
            try:
                code, message = args.run(args)
            except config.TheoremViolationError as exc:
                _emit(args, {
                    "command": args.command,
                    "input": getattr(args, "input", None),
                    "violation": str(exc),
                })
                code, message = EXIT_VIOLATION, f"THEOREM VIOLATION: {exc}"
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, config.CapExceededError,
            config.SearchInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed_ms = (time.perf_counter() - started) * 1000
    print(f"{args.command}: {message} [{elapsed_ms:.0f} ms]", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
