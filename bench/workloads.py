"""The three benchmark workloads: seeded inputs, the timed computation of
each case, and the canonical output that is digested and checked.

Every case goes through public entry points only: ``cli.main`` for the
census, and the ``certify``/``search`` functions for the two corpora.  A
case is split in two so that only the program's own work is timed:

* ``compute()`` runs the entry points and returns their raw results;
* ``finish(raw)`` turns them into a canonical JSON-able dict and lists
  every invariant the raw results break (an empty list when they hold).

The invariant checks hold for any seed, so a run is checked even where no
digest was recorded; the digests in ``expected/`` pin every byte of the
output for the seeds recorded there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected"

# relative to ROOT, which is the working directory of every pass: the census
# report embeds this string, so it must not depend on where the checkout is
CENSUS_FIXTURE = "bench/fixtures/fermat_cubic_f13.txt"

WORKLOADS = ("census", "flags", "emptiness")

# The kernel whose speed scales each workload's case times
# (``worker.SpeedProbe``): one of the same kind as the workload's hot code,
# since a slowed CPU slows pure Python far more than numpy work on large
# arrays.  Over five minutes of flags passes on a shared 2-vCPU VM, the
# Python loop moved the scaled time by 15%, more than the unscaled time
# moved, while a numpy elimination kernel held it within 4%.
SPEED_KERNEL = {"census": "python", "flags": "numpy", "emptiness": "python"}

# (label, p, number of variables, degree, top flag dimension r); every field
# has at least 64 elements, so the Las-Vegas slices never need an extension
FLAG_FAMILIES = (
    ("quintic-surface-f83", 83, 4, 5, 2),
    ("quartic-surface-f67", 67, 4, 4, 2),
    ("cubic-threefold-f109", 109, 5, 3, 3),
)
FLAG_ROUNDS = 2

# the cubic threefolds exceed the default enumeration cap (P^4(F_109) has
# 1.4e8 points); expected digests are recorded with this cap instead
RECORDING_MAX_ENUM = 200_000_000

# (number of variables, generator degrees), run over each of F_2, F_3, F_5
EMPTINESS_FIELDS = (2, 3, 5)
EMPTINESS_PATTERNS = (
    (2, (1,)),
    (2, (2, 3)),
    (2, (3, 2, 1)),
    (3, (2,)),
    (3, (1, 2)),
    (3, (2, 2, 1)),
    (3, (3, 2, 2, 1)),
)
ORACLE_KMAX = 6


@dataclass
class Case:
    id: str
    compute: Callable[[], object]
    finish: Callable[[object], tuple]


def import_package():
    """Import ``transverse`` from this checkout's ``src``, never from
    anywhere else on the path."""
    init = SRC / "transverse" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import transverse

    if Path(transverse.__file__).resolve() != init.resolve():
        raise SystemExit(
            f"benchmark: imported {transverse.__file__}, expected {init}"
        )
    return transverse


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(output: dict) -> str:
    return hashlib.sha256(canonical(output).encode()).hexdigest()[:20]


def build_cases(workload: str, seed: int, recording: bool = False):
    """The workload's cases for ``seed``; ``recording`` raises the caps
    that keep the capped flags cases from finishing."""
    if workload == "census":
        return _census_cases()
    if workload == "flags":
        return _flags_cases(seed, recording)
    if workload == "emptiness":
        return _emptiness_cases(seed)
    raise ValueError(f"unknown workload {workload!r}")


def load_expected(workload: str, seed: int):
    """Recorded digests for this workload and seed, or None."""
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as handle:
        table = json.load(handle)["digests"]
    return table.get("*", table.get(str(seed)))


def seed_independent(workload: str) -> bool:
    return workload == "census"


# ---------------------------------------------------------------------------
# census: the CLI on the README's Fermat cubic surface over F_13


def _census_cases():
    # the input file is read in set-up like any other input; cli.main parses
    # it again inside the pass, as it does for a user
    with open(ROOT / CENSUS_FIXTURE, encoding="utf-8") as handle:
        handle.read()
    commands = (
        ("count-hyperplanes", ["count", "hyperplanes"]),
        ("count-superspaces-r1", ["count", "superspaces", "--r", "1"]),
    )
    return [
        Case(
            case_id,
            lambda argv=argv + ["--input", CENSUS_FIXTURE]: _run_cli(argv),
            _finish_cli,
        )
        for case_id, argv in commands
    ]


def _run_cli(argv):
    from transverse import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit status {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _finish_cli(stdout):
    problems = []
    try:
        report = json.loads(stdout)
    except ValueError:
        report = {}
        problems.append("stdout is not a JSON report")
    if report.get("all_pass") is not True:
        problems.append("census reports a violated bound")
    return {"stdout": stdout}, problems


# ---------------------------------------------------------------------------
# flags: smoothness, then a very transverse flag at the paper's gate


def _random_form(field, nvars, degree, rng):
    from transverse import poly

    while True:
        terms = {
            exps: rng.randrange(field.order)
            for exps in poly.monomials_of_degree(nvars, degree)
        }
        form = poly.Form(field, nvars, degree, terms)
        if not form.is_zero():
            return form


def _flags_cases(seed, recording):
    from transverse import config, gf

    rng = random.Random(f"flags/{seed}")
    caps = config.Caps(max_enum=RECORDING_MAX_ENUM) if recording else None
    cases = []
    for round_no in range(FLAG_ROUNDS):
        for label, p, nvars, degree, r in FLAG_FAMILIES:
            form = _random_form(gf.field_create(p), nvars, degree, rng)
            search_seed = rng.randrange(1 << 30)
            cases.append(
                Case(
                    f"{label}-{round_no}",
                    lambda form=form, r=r, s=search_seed: _run_flag(form, r, s, caps),
                    _finish_flag,
                )
            )
    return cases


def _run_flag(form, r, search_seed, caps):
    from transverse import certify, locus, search

    X = locus.Hypersurface(form)
    smooth = certify.ensure_smooth(X)
    outcome = None
    if smooth:
        outcome = search.find_very_transverse_flag(X, r, seed=search_seed, caps=caps)
    return X, r, smooth, outcome


def _finish_flag(raw):
    from transverse import poly

    X, r, smooth, outcome = raw
    output = {"smooth": smooth}
    problems = []
    if outcome is not None:
        output["outcome"] = outcome.to_dict()
        if not outcome.gate["satisfied"]:
            problems.append("the corpus must sit at or above the gate")
        if not outcome.succeeded():
            problems.append("no flag found above the gate")
        else:
            levels = outcome.found.levels
            if [H.dim for H in levels] != list(range(r + 1)):
                problems.append("flag levels do not have dimensions 0..r")
            point = levels[0].basis[0]
            if poly.form_eval_codes(X.form, tuple(point), X.field) == 0:
                problems.append("the flag's point lies on X")
    return output, problems


# ---------------------------------------------------------------------------
# emptiness: Macaulay verdicts cross-checked by a point sweep


def _emptiness_cases(seed):
    """A fixed random corpus, rescaled by the seed.

    The schemes are drawn once from a fixed base seed; the run's seed then
    scales every coordinate and every generator by random units.  Each seed
    gets different coefficients, witnesses and digests, but isomorphic
    schemes, so a case costs the same work on every seed.  Independent
    random schemes would not: one point sweep over F_{5^6} costs 0.8 to
    2.5 s depending on the coefficients, and that spread alone moved the
    pass time by 15 to 20 percent from seed to seed.
    """
    from transverse import gf, locus, poly

    base = random.Random("emptiness/base")
    twist = random.Random(f"emptiness/{seed}")
    cases = []
    for p in EMPTINESS_FIELDS:
        field = gf.field_create(p)
        for nvars, degrees in EMPTINESS_PATTERNS:
            gens = [_random_form(field, nvars, d, base) for d in degrees]
            scale = [twist.randrange(1, p) for _ in range(nvars)]
            units = [twist.randrange(1, p) for _ in gens]
            gens = [
                poly.Form(field, nvars, g.degree, {
                    exps: unit * c * math.prod(v**e for v, e in zip(scale, exps)) % p
                    for exps, c in g.terms.items()
                })
                for g, unit in zip(gens, units)
            ]
            S = locus.SchemeSpec(field, nvars, gens)
            tag = "".join(map(str, degrees))
            cases.append(
                Case(
                    f"f{p}-p{nvars - 1}-d{tag}",
                    lambda S=S: _run_emptiness(S),
                    _finish_emptiness,
                )
            )
    return cases


def _run_emptiness(S):
    from transverse import certify

    cert = certify.is_empty_projective(S)
    points = None
    # a sweep is only finite for schemes with at least as many generators
    # as the ambient dimension; there it confirms empties and witnesses
    if len(S.gens) >= S.ambient:
        points = certify.scheme_points_upto(S, ORACLE_KMAX)
    return S, cert, points


def _finish_emptiness(raw):
    from transverse import projgeom

    S, cert, points = raw
    output = {"certificate": cert.to_dict(), "oracle": None}
    problems = []
    if cert.verdict == "nonempty" and cert.witness is not None:
        if not S.vanishes_at_codes(cert.witness.coords, cert.witness.field):
            problems.append("the witness is not a point of the scheme")
    if points is not None:
        listed = [projgeom.format_point(P) for P in points]
        output["oracle"] = {
            "points": len(listed),
            "digest": hashlib.sha256("\n".join(listed).encode()).hexdigest()[:20],
        }
        if cert.verdict in ("empty", "inconclusive") and listed:
            problems.append(f"{cert.verdict} verdict but the sweep found points")
        if cert.witness is not None and cert.witness.field.m <= S.field.m * ORACLE_KMAX:
            if projgeom.format_point(cert.witness) not in listed:
                problems.append("the witness is missing from the sweep")
    return output, problems
