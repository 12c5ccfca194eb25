"""Command line front end: parse a hypersurface file, run a search or an
audit, write one report.

Input files are two logical parts: a header line ``p=<prime> m=<int>
n=<int>`` and then one homogeneous polynomial in the grammar of
:mod:`transverse.poly` (which may wrap across the remaining lines).  All
results are emitted as a single JSON document, or as the flat CSV mirror
for counting reports.

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
from dataclasses import dataclass, field as dc_field

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


@dataclass
class RunConfig:
    """Everything one invocation needs, normalized from the parsed flags."""

    command: str
    input: str | None = None
    out: str | None = None
    format: str = "json"
    seed: int = DEFAULT_SEED
    caps: config.Caps = dc_field(default_factory=config.Caps)
    options: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise UsageError(f"unknown format {self.format!r}")
        if self.caps.max_field_bits <= 0 or self.caps.max_enum <= 0:
            raise UsageError("caps must be positive")


# ---------------------------------------------------------------------------
# input files

_HEADER = re.compile(r"p\s*=\s*(\d+)\s+m\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s*$")


def _offset_to_position(segments, offset):
    """Map an offset into the joined polynomial text back to (line, column).

    segments: (line number, text) pairs joined with single spaces."""
    pos = 0
    for lineno, text in segments:
        end = pos + len(text)
        if offset <= end:
            return lineno, offset - pos + 1
        pos = end + 1  # the joining space
    lineno, text = segments[-1]
    return lineno, len(text) + 1


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
    segments = [(lineno, text.strip()) for lineno, text in numbered[1:]]
    if not segments:
        raise InputFileError(
            path, header_line, len(header_text) + 1,
            "no polynomial after the header",
        )
    joined = " ".join(text for _, text in segments)
    if field.m == 1 and "t" in joined:
        lineno, col = _offset_to_position(segments, joined.index("t"))
        raise InputFileError(
            path, lineno, col,
            "coefficient outside the field: 't' needs an extension (m > 1)",
        )
    try:
        form = poly.parse_form(field, joined, nvars=n + 1)
    except ValueError as exc:
        msg = str(exc)
        at = re.search(r"at offset (\d+)", msg)
        if at:
            lineno, col = _offset_to_position(segments, int(at.group(1)))
        else:
            lineno, col = segments[0][0], 1
        raise InputFileError(path, lineno, col, msg) from exc
    if form.is_zero():
        raise InputFileError(
            path, segments[0][0], 1, "polynomial is identically zero",
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


def _emit(cfg: RunConfig, payload: dict, reports=None) -> None:
    """Write the run's report to --out or stdout in the requested format.

    CSV is the flat mirror and only carries the counting reports; commands
    without them fall back to a one-row summary.
    """
    if cfg.format == "csv":
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
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
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


def _flatten_summary(cfg: RunConfig, outcome) -> dict:
    d = outcome.to_dict()
    return {
        "command": cfg.command,
        "kind": d["kind"],
        "found": json.dumps(d["found"], sort_keys=True)
        if isinstance(d["found"], dict)
        else d["found"],
        "tested": d["tested"],
        "gate_satisfied": d["gate"].get("satisfied"),
        "seed": d["seed"],
    }


# ---------------------------------------------------------------------------
# subcommand bodies


def _load(cfg: RunConfig):
    if not cfg.input:
        raise UsageError(f"{cfg.command} requires --input")
    return parse_input(cfg.input)


def _option(cfg: RunConfig, key: str, default):
    """The flag's value, or ``default`` when the flag was not given; an
    explicit 0 stays 0 so the library can refuse it."""
    value = cfg.options.get(key)
    return default if value is None else value


def _run_find_line(cfg: RunConfig) -> int:
    field, X = _load(cfg)
    outcome = search.find_transverse_line_reduced(X, seed=cfg.seed)
    return _finish_search(cfg, field, X, outcome)


def _run_find_flag(cfg: RunConfig) -> int:
    field, X = _load(cfg)
    r = cfg.options.get("r")
    if r is None:
        raise UsageError("find-flag requires --r")
    outcome = search.find_very_transverse_flag(X, r, seed=cfg.seed)
    return _finish_search(cfg, field, X, outcome)


def _run_find_reduced(cfg: RunConfig) -> int:
    field, X = _load(cfg)
    r = cfg.options.get("r")
    if r is None:
        raise UsageError("find-reduced requires --r")
    if r == X.ambient - 1:
        outcome = search.find_reduced_hyperplane(X, seed=cfg.seed)
    else:
        outcome = search.find_reduced_plane_section_chain(X, r, seed=cfg.seed)
    return _finish_search(cfg, field, X, outcome)


def _finish_search(cfg: RunConfig, field, X, outcome) -> int:
    payload = {
        "command": cfg.command,
        "input": cfg.input,
        "field": {"p": field.p, "m": field.m, "order": field.order},
        "ambient": X.ambient,
        "degree": X.degree,
        "outcome": outcome.to_dict(),
    }
    if cfg.format == "csv":
        _emit(cfg, _flatten_summary(cfg, outcome))
    else:
        _emit(cfg, payload)
    _log(cfg, "found" if outcome.succeeded() else "exhausted")
    return EXIT_OK


def _run_count(cfg: RunConfig) -> int:
    field, X = _load(cfg)
    what = cfg.options["what"]
    seed = cfg.seed
    if what == "lines":
        if X.ambient != 2:
            raise UsageError("count lines needs a plane curve (n = 2)")
        fixture = audit.CurveFixture([X.form])
        rep = audit.count_nontransverse_lines(
            fixture, seed=seed, claim_irreducible=False
        )
        reports = [rep]
    elif what == "hyperplanes":
        rep = audit.count_bad_hyperplanes(X, _option(cfg, "t", 0), seed=seed)
        reports = [rep]
    elif what == "superspaces":
        r = cfg.options.get("r")
        if r is None:
            raise UsageError("count superspaces requires --r")
        flag = search.find_very_transverse_flag(X, r - 1, seed=seed)
        if not flag.succeeded():
            _emit(cfg, {
                "command": cfg.command,
                "input": cfg.input,
                "note": "no very transverse base flag found; nothing to count",
                "outcome": flag.to_dict(),
            })
            _log(cfg, "no base flag")
            return EXIT_OK
        rep = audit.count_bad_superspaces(X, flag.found.top, r, seed=seed)
        reports = [rep]
    else:  # pragma: no cover - argparse restricts the choices
        raise UsageError(f"unknown count target {what!r}")
    return _finish_reports(cfg, reports)


def _finish_reports(cfg: RunConfig, reports) -> int:
    flat = audit.flatten_reports(reports)
    failed = [r for r in flat if r.get("verdict") == "fail"]
    payload = {
        "command": cfg.command,
        "input": cfg.input,
        "all_pass": not failed,
    }
    _emit(cfg, payload, reports=reports)
    _log(cfg, "all bounds hold" if not failed else f"{len(failed)} bound(s) violated")
    return EXIT_OK if not failed else EXIT_VIOLATION


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


def _run_audit(cfg: RunConfig) -> int:
    what = cfg.options["what"]
    seed = cfg.seed
    if what == "space-filling":
        reports = [audit.audit_space_filling(
            _option(cfg, "n", 2), _option(cfg, "q", 2), _option(cfg, "d", 2)
        )]
    elif what == "inequalities":
        reports = [_inequality_report(
            _option(cfg, "nmax", 6), _option(cfg, "dmax", 5)
        )]
    elif what == "separation":
        reports = [
            audit.separation_search(
                _option(cfg, "samples", 5),
                _option(cfg, "n", 3),
                _option(cfg, "d", 3),
                _option(cfg, "q", 2),
                r=_option(cfg, "r", 1),
                seed=seed,
            )
        ]
    elif what == "all":
        reports = battery(seed)
        reports.append(
            _inequality_report(_option(cfg, "nmax", 6), _option(cfg, "dmax", 5))
        )
        reports.append(
            audit.separation_search(
                _option(cfg, "samples", 3), 3, 3, 2, r=1, seed=seed
            )
        )
    else:  # pragma: no cover - argparse restricts the choices
        raise UsageError(f"unknown audit target {what!r}")
    return _finish_reports(cfg, reports)


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


_DISPATCH = {
    "find-line": _run_find_line,
    "find-flag": _run_find_flag,
    "find-reduced": _run_find_reduced,
    "count": _run_count,
    "audit": _run_audit,
}


def run(cfg: RunConfig) -> int:
    """Execute one configured invocation; returns the process exit status."""
    started = time.perf_counter()
    cfg.options["_started"] = started
    with config.caps_scope(cfg.caps):
        try:
            return _DISPATCH[cfg.command](cfg)
        except config.TheoremViolationError as exc:
            _emit(cfg, {
                "command": cfg.command,
                "input": cfg.input,
                "violation": str(exc),
            })
            _log(cfg, f"THEOREM VIOLATION: {exc}")
            return EXIT_VIOLATION


def _log(cfg: RunConfig, message: str) -> None:
    started = cfg.options.get("_started")
    elapsed = f" [{(time.perf_counter() - started) * 1000:.0f} ms]" if started else ""
    print(f"{cfg.command}: {message}{elapsed}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--input", help="hypersurface file (header + polynomial)")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--max-field-bits", type=int, default=None,
                     help="largest allowed field order, as a bit length")
    sub.add_argument("--max-enum", type=int, default=None,
                     help="largest allowed enumeration size")


def build_parser() -> _Parser:
    parser = _Parser(prog="transverse", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("find-line", help="transverse line to a reduced curve")
    _add_common(sp)

    sp = subs.add_parser("find-flag", help="very transverse flag of subspaces")
    _add_common(sp)
    sp.add_argument("--r", type=int, required=True, help="top flag dimension")

    sp = subs.add_parser("find-reduced", help="r-plane with a reduced section")
    _add_common(sp)
    sp.add_argument("--r", type=int, required=True, help="plane dimension")

    sp = subs.add_parser("count", help="exact census against a bound")
    sp.add_argument("what", choices=("lines", "hyperplanes", "superspaces"))
    _add_common(sp)
    sp.add_argument("--r", type=int, help="superspace dimension")
    sp.add_argument("--t", type=int, default=0,
                    help="declared number of hyperplane components")

    sp = subs.add_parser("audit", help="built-in bound audits")
    sp.add_argument(
        "what", choices=("all", "space-filling", "inequalities", "separation")
    )
    _add_common(sp)
    sp.add_argument("--n", type=int, help="ambient projective dimension")
    sp.add_argument("--q", type=int, help="field order")
    sp.add_argument("--d", type=int, help="degree limit")
    sp.add_argument("--r", type=int, help="subspace dimension")
    sp.add_argument("--samples", type=int, help="randomized sample count")
    sp.add_argument("--nmax", type=int, help="grid limit for inequalities")
    sp.add_argument("--dmax", type=int, help="grid limit for inequalities")
    return parser


def config_from_args(args) -> RunConfig:
    caps_kwargs = {}
    if getattr(args, "max_field_bits", None) is not None:
        caps_kwargs["max_field_bits"] = args.max_field_bits
    if getattr(args, "max_enum", None) is not None:
        caps_kwargs["max_enum"] = args.max_enum
    options = {
        key: getattr(args, key)
        for key in ("what", "r", "t", "n", "q", "d", "samples", "nmax", "dmax")
        if hasattr(args, key)
    }
    return RunConfig(
        command=args.command,
        input=args.input,
        out=args.out,
        format=args.format,
        seed=args.seed,
        caps=config.Caps(**caps_kwargs),
        options=options,
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        code = run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, config.CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
