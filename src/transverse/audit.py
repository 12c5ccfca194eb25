"""Desk-scale counting audits for the bounds behind the search gates.

Every experiment here enumerates a finite pool (lines of P^2, hyperplanes
of P^n, r-planes through a fixed flag level, low-degree forms), classifies
each member exactly, and compares the observed count with a bound that is
recomputed from its stored formula text at run time.  The formulas are
kept as small arithmetic expressions and evaluated through a whitelisted
AST walker, so the value reported can never drift from the text shown in
the report; a transcription slip surfaces as a failed arithmetic example
rather than a silently wrong constant.

Fixtures carry their own factorizations.  Nothing in this module factors
multivariate forms; a CurveFixture is trusted on the geometric
irreducibility of its factors and verified on everything that is checkable
(the product matches, no two factors are proportional, the product is
squarefree).

Reports follow one JSON schema: experiment, params {n, d, q, r, t},
observed, bound, bound_formula, citation, verdict, runtime_ms, seed.
runtime_ms is wall-clock and is the only field not reproducible
bit-for-bit from (fixture, seed).
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass, field as dc_field

from . import certify, config, gf, locus, poly, projgeom

# ---------------------------------------------------------------------------
# bound formulas


@dataclass(frozen=True)
class BoundFormula:
    """One counting bound: its formula text and what it counts."""

    key: str
    formula: str
    citation: str

    def value(self, **params) -> int:
        env = {k: v for k, v in params.items() if v is not None}
        got = _eval_arith(self.formula, env)
        if not isinstance(got, int):
            raise ValueError(f"bound {self.key} did not evaluate to an integer")
        return got


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Pow: operator.pow,
    ast.FloorDiv: operator.floordiv,
}


def _eval_arith(text: str, env: dict) -> int:
    def ev(nd):
        if isinstance(nd, ast.BinOp) and type(nd.op) in _BINOPS:
            return _BINOPS[type(nd.op)](ev(nd.left), ev(nd.right))
        if isinstance(nd, ast.UnaryOp) and isinstance(nd.op, ast.USub):
            return -ev(nd.operand)
        if isinstance(nd, ast.Constant) and isinstance(nd.value, int):
            return nd.value
        if isinstance(nd, ast.Name):
            if nd.id not in env:
                raise ValueError(f"formula parameter {nd.id!r} not supplied")
            return env[nd.id]
        raise ValueError(f"unsupported construct in bound formula: {text!r}")

    return ev(ast.parse(text, mode="eval").body)


BOUNDS = {
    b.key: b
    for b in [
        BoundFormula(
            "reduced-curve-lines",
            "3*d*(d-1)*(q+1)//2",
            "rational lines not transverse to a reduced plane curve of degree d",
        ),
        BoundFormula(
            "irreducible-curve-lines",
            "(d-1)*(3*d-2)*(q+1)//2",
            "rational lines not transverse to a geometrically irreducible "
            "plane curve of degree d",
        ),
        BoundFormula(
            "bad-hyperplanes",
            "(d-t)*(d-1)*(q+1)**2 + t*(t-1)//2*(q+1) + 1",
            "rational hyperplanes meeting a reduced hypersurface in an "
            "improper or non-reduced section (t hyperplane components)",
        ),
        BoundFormula(
            "tangent-superspaces",
            "d*(d-1)**r*(q+1)**(n-r-1)",
            "rational r-planes through a very transverse (r-1)-plane that "
            "are tangent to a smooth hypersurface of degree d",
        ),
        BoundFormula(
            "dual-contained-superspaces",
            "d*(d-1)**(n-1)",
            "rational r-planes through a very transverse (r-1)-plane whose "
            "dual lies inside the dual hypersurface",
        ),
        BoundFormula(
            "bad-superspaces",
            "d*(d-1)**r*(q+1)**(n-r-1) + d*(d-1)**(n-1)",
            "rational r-planes through a very transverse (r-1)-plane that "
            "fail very transversality (tangent plus dual-contained)",
        ),
        BoundFormula(
            "space-filling-degree",
            "0",
            "space-filling hypersurfaces of degree at most q (none can "
            "exist; covering every rational point forces degree >= q+1)",
        ),
    ]
}


def bad_hyperplane_weight(d: int, t: int) -> int:
    """(d-t)(d-1) + t(t-1)/2, the q-free part of the bad-hyperplane bound."""
    return (d - t) * (d - 1) + t * (t - 1) // 2


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class AuditReport:
    """One audited count against one recomputed bound.

    params always carries the five keys n, d, q, r, t with None for the
    ones an experiment does not use.  extras and subreports hold
    diagnostic detail and companion bounds; to_dict exposes exactly the
    interchange schema and nothing else.
    """

    experiment: str
    params: dict
    observed: int
    bound: int
    bound_formula: str
    citation: str
    verdict: str
    runtime_ms: int
    seed: int | None
    extras: dict = dc_field(default_factory=dict)
    subreports: tuple = ()

    def passed(self) -> bool:
        return self.verdict == "pass"

    def all_reports(self):
        return [self, *self.subreports]

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": {k: self.params.get(k) for k in ("n", "d", "q", "r", "t")},
            "observed": self.observed,
            "bound": self.bound,
            "bound_formula": self.bound_formula,
            "citation": self.citation,
            "verdict": self.verdict,
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
        }


def _finish(experiment, params, observed, bound_key, seed, started, extras, subs=()):
    spec = BOUNDS[bound_key]
    bound = spec.value(**params)
    return AuditReport(
        experiment=experiment,
        params=params,
        observed=observed,
        bound=bound,
        bound_formula=spec.formula,
        citation=spec.citation,
        verdict="pass" if observed <= bound else "fail",
        runtime_ms=int((time.perf_counter() - started) * 1000),
        seed=seed,
        extras=dict(extras),
        subreports=tuple(subs),
    )


def flatten_reports(reports):
    """Reports and their subreports as schema dicts, in stable order."""
    out = []
    for r in reports:
        if isinstance(r, AuditReport):
            out.extend(s.to_dict() for s in r.all_reports())
        else:
            out.append(dict(r))
    return out


# ---------------------------------------------------------------------------
# fixtures


def _proportional(f: poly.Form, g: poly.Form) -> bool:
    if f.degree != g.degree or set(f.terms) != set(g.terms):
        return False
    fld = f.field
    ratio = None
    for m, c in f.terms.items():
        r = fld.mul(c, fld.inv(g.terms[m]))
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


class CurveFixture:
    """Plane curve carried as an explicit product of irreducible factors.

    The geometric irreducibility of each factor is the caller's claim and
    is not verified (the library never factors multivariate forms); what
    can be checked, is: every factor is a nonzero ternary form over one
    field, no two factors are proportional, and the product is squarefree.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a curve fixture needs at least one factor")
        fld = factors[0].field
        for f in factors:
            if f.field != fld or f.nvars != 3:
                raise ValueError("factors must be ternary forms over one field")
            if f.is_zero() or f.degree < 1:
                raise ValueError("factors must be nonzero of degree >= 1")
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if _proportional(factors[i], factors[j]):
                    raise ValueError("proportional factors make the curve non-reduced")
        form = factors[0]
        for f in factors[1:]:
            form = form * f
        self.field = fld
        self.factors = factors
        self.form = form
        self.degrees = tuple(f.degree for f in factors)
        self.degree = sum(self.degrees)
        self.ell = len(factors)
        self.t = sum(1 for d in self.degrees if d == 1)

    @classmethod
    def from_strings(cls, field: gf.Field, texts) -> "CurveFixture":
        return cls([poly.parse_form(field, s, 3) for s in texts])

    def __repr__(self):
        inner = ", ".join(poly.format_form(f) for f in self.factors)
        return f"CurveFixture[{inner}]"


def _field_of_order(q: int) -> gf.Field:
    if q < 2:
        raise ValueError("field order must be at least 2")
    # before the trial division, which is slow past the cap
    config.current_caps().check_field(q, 1)
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return gf.field_create(p, m)


# ---------------------------------------------------------------------------
# experiments


def count_nontransverse_lines(
    C: CurveFixture,
    seed: int | None = None,
    claim_irreducible: bool = True,
) -> AuditReport:
    """Exact census of the rational lines not transverse to the fixture.

    A line is transverse exactly when the restriction of the defining form
    is a nonzero squarefree binary form.  The lines of P^2 are its
    hyperplanes, each its own pencil in certify.hyperplane_section_counts,
    so that binary test, run on every line by one restriction kernel call
    per chunk, is the verdict: no section form is built and nothing is
    drawn.  The primary report compares against the
    reduced-curve bound; an irreducible fixture (one factor) gets the
    sharper component bound as a subreport unless claim_irreducible is
    false, the escape hatch for a caller whose single-factor fixture is of
    unknown factorization.
    """
    if C.degree < 2:
        raise ValueError("line audit needs a curve of degree >= 2")
    pool = projgeom.count_lines(2, C.field)
    config.current_caps().check_enum(pool, "line census")
    rng = random.Random(0 if seed is None else seed)
    if not certify.is_reduced_form(C.form, rng=rng):
        raise ValueError("fixture form is not squarefree")
    started = time.perf_counter()
    improper, not_squarefree = certify.hyperplane_section_counts(
        locus.Hypersurface(C.form), rng
    )
    observed = improper + not_squarefree
    params = {"n": 2, "d": C.degree, "q": C.field.order, "r": 1, "t": C.t}
    extras = {
        "pool": pool,
        "improper": improper,
        "not_squarefree": not_squarefree,
    }
    subs = []
    if C.ell == 1 and claim_irreducible:
        subs.append(
            _finish(
                "nontransverse-lines-irreducible",
                params,
                observed,
                "irreducible-curve-lines",
                seed,
                started,
                extras,
            )
        )
    return _finish(
        "nontransverse-lines",
        params,
        observed,
        "reduced-curve-lines",
        seed,
        started,
        extras,
        subs,
    )


def bound_bad_hyperplanes(d: int, t: int, q: int) -> int:
    """Bad-hyperplane bound, with the weight maximization re-verified.

    Checks (d-s)(d-1) + s(s-1)/2 <= d(d-1) for every s in [0, d] before
    returning the bound value, so a transcription error in the weight
    cannot hide behind one convenient t.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if not 0 <= t <= d:
        raise ValueError("hyperplane-component count must lie in [0, d]")
    if q < 2:
        raise ValueError("field order must be >= 2")
    for s in range(d + 1):
        w = bad_hyperplane_weight(d, s)
        if w > d * (d - 1):
            raise AssertionError(
                f"weight (d-s)(d-1)+s(s-1)/2 = {w} exceeds d(d-1) at s={s}"
            )
    return BOUNDS["bad-hyperplanes"].value(d=d, t=t, q=q)


def count_bad_hyperplanes(
    X: locus.Hypersurface, t: int, seed: int | None = None
) -> AuditReport:
    """Exact census of hyperplanes with improper or non-reduced section.

    t is the number of hyperplane components of X and comes from the
    caller's knowledge of the fixture; it only enters the bound, never the
    classification, which is exact: certify.hyperplane_section_counts
    certifies the pencils through the transverse lines of a fixed plane
    and decides the other sections one by one.
    """
    n = X.ambient
    if n < 2:
        raise ValueError("hyperplane audit needs ambient dimension >= 2")
    if not 0 <= t <= X.degree:
        raise ValueError("hyperplane-component count must lie in [0, d]")
    pool = projgeom.count_points(n, X.field)
    config.current_caps().check_enum(pool, "hyperplane census")
    rng = random.Random(0 if seed is None else seed)
    if not certify.is_reduced_form(X.form, rng=rng):
        raise ValueError("hypersurface must be reduced")
    started = time.perf_counter()
    improper, nonreduced = certify.hyperplane_section_counts(X, rng)
    observed = improper + nonreduced
    params = {"n": n, "d": X.degree, "q": X.field.order, "r": n - 1, "t": t}
    extras = {
        "pool": pool,
        "improper": improper,
        "nonreduced": nonreduced,
    }
    # same weight re-verification as the standalone bound helper
    bound_bad_hyperplanes(X.degree, t, X.field.order)
    return _finish(
        "bad-hyperplanes", params, observed, "bad-hyperplanes", seed, started, extras
    )


# largest residue degree of the tangency witnesses hunted by the superspace
# census
_WITNESS_KMAX = 2


def count_bad_superspaces(
    X: locus.Hypersurface,
    H_prev: projgeom.LinearSubspace,
    r: int,
    seed: int | None = None,
) -> AuditReport:
    """Census of the r-planes through H_prev that fail very transversality.

    Every candidate is classified exactly: non-transverse candidates count
    as tangent (for smooth X the two notions agree), and transverse ones
    are split by the exact very-transversality decision.  A candidate in a
    rational hyperplane with a smooth section is very transverse
    (certify.pencil_certificates); only the rest go through
    certify.very_transverse_verdicts.  The primary report carries the
    combined bound; tangent and dual-contained counts get their own
    subreports.

    As a behavioral cross-check, tangency witnesses are hunted: points P
    of the tangency locus of H_prev at residue degree <= _WITNESS_KMAX on a
    rational r-plane E through H_prev.  Then E = H_prev + P lies in the
    tangent hyperplane at P, so E is tangent: the hunt sweeps the locus on
    each tangent candidate alone, in its own coordinates, and finds nothing
    where a sweep over P^n would exceed the caps.  Each tangent candidate
    is checked for a point of its own at which the tangent hyperplane
    holds it; the counts land in extras.
    """
    n = X.ambient
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must lie in [1, {n - 1}]")
    if H_prev.dim != r - 1:
        raise ValueError("H_prev must have dimension r - 1")
    pool = projgeom.count_points(n - r, X.field)
    config.current_caps().check_enum(pool, "superspace census")
    if not certify.ensure_smooth(X):
        raise ValueError("superspace audit needs a smooth hypersurface")
    rng = random.Random(0 if seed is None else seed)
    if not certify.is_very_transverse(X, H_prev, rng=rng):
        raise ValueError("H_prev must be very transverse to X")
    started = time.perf_counter()
    tangent = []
    dual_contained = 0
    candidates = projgeom.enumerate_superspaces(H_prev, r)
    staged = certify.pencil_certificates(X, H_prev, candidates)
    left_open = (E for E, K in staged if K is None)
    for E, verdict, method in certify.very_transverse_verdicts(X, left_open, rng):
        if method == "not-transverse":
            tangent.append(E)
        elif verdict == "no":
            dual_contained += 1

    own_points = _tangency_witnesses(X, H_prev, tangent, _WITNESS_KMAX)
    witnessed = None
    if any(own_points):
        witnessed = 0
        for E, pts in zip(tangent, own_points):
            # witness points lie on X, so the tangency locus of E holds at P
            # exactly when the tangent hyperplane at P contains E
            T = locus.tangency_locus(X, E)
            witnessed += any(T.vanishes_at_codes(P.coords, P.field) for P in pts)

    observed = len(tangent) + dual_contained
    q = X.field.order
    params = {"n": n, "d": X.degree, "q": q, "r": r, "t": None}
    extras = {
        "pool": pool,
        "transverse": pool - len(tangent),
        "tangent": len(tangent),
        "dual_contained": dual_contained,
        "witness_points": sum(map(len, own_points)),
        "witnessed_tangents": witnessed,
    }
    subs = [
        _finish(
            "tangent-superspaces",
            params,
            len(tangent),
            "tangent-superspaces",
            seed,
            started,
            extras,
        ),
        _finish(
            "dual-contained-superspaces",
            params,
            dual_contained,
            "dual-contained-superspaces",
            seed,
            started,
            extras,
        ),
    ]
    return _finish(
        "bad-superspaces", params, observed, "bad-superspaces", seed, started,
        extras, subs,
    )


def _tangency_witnesses(X, H_prev, superspaces, kmax: int):
    """Per r-plane E through H_prev: the points of H_prev's tangency locus
    on E of residue degree <= kmax, in ambient coordinates (none at all
    when a sweep of the locus over P^n would exceed the caps)."""
    try:
        top = gf.extension_field(X.field, kmax)
        config.current_caps().check_enum(projgeom.count_points(X.ambient - 1, top) + 1)
    except config.CapExceededError:
        return [[] for _ in superspaces]
    gens = locus.tangency_locus(X, H_prev).gens
    restricted = poly.restrict(gens, [E.basis for E in superspaces], X.field)
    out = []
    for E, sections in zip(superspaces, restricted):
        S = locus.SchemeSpec(X.field, len(E.basis), sections)
        out.append([
            projgeom.subspace_point(E, P.coords, P.field)
            for P in certify.scheme_points_upto(S, kmax)
        ])
    return out


def audit_space_filling(n: int, q: int, dmax: int) -> AuditReport:
    """Exhaustive low-degree space-filling scan plus the classical witness.

    Confirms that every nonzero form of degree <= min(dmax, q) in n+1
    variables misses some rational point, and that the Frobenius
    difference form x0^q x1 - x0 x1^q (degree q+1) vanishes everywhere,
    so the degree threshold in the report is tight.
    """
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    config.check_nvars(n + 1)
    fld = _field_of_order(q)
    started = time.perf_counter()
    dcap = min(dmax, q)
    caps = config.current_caps()
    total = 0
    for deg in range(1, dcap + 1):
        total += (q ** math.comb(n + deg, n) - 1) // (q - 1)
        if total > caps.max_enum:
            break  # the next degree's count may be out of reach
    # the linear forms alone number as many as the points, so this check
    # also bounds the point list
    caps.check_enum(total, "form enumeration")
    points = list(projgeom.enumerate_point_codes(n, fld))
    scanned = 0
    filling = []
    for deg in range(1, dcap + 1):
        monos = list(poly.monomials_of_degree(n + 1, deg))
        for lead in range(len(monos)):
            tail_len = len(monos) - lead - 1
            for tail in itertools.product(range(q), repeat=tail_len):
                coeffs = (0,) * lead + (1,) + tail
                F = poly.Form(
                    fld, n + 1, deg,
                    {m: c for m, c in zip(monos, coeffs) if c},
                )
                scanned += 1
                if all(
                    poly.form_eval_codes(F, P, fld) == 0 for P in points
                ):
                    filling.append(poly.format_form(F))
    witness = poly.Form(
        fld, n + 1, q + 1,
        {
            tuple((q if i == 0 else (1 if i == 1 else 0)) for i in range(n + 1)): 1,
            tuple((1 if i == 0 else (q if i == 1 else 0)) for i in range(n + 1)):
                fld.neg(1),
        },
    )
    witness_fills = all(
        poly.form_eval_codes(witness, P, fld) == 0 for P in points
    )
    if not witness_fills:
        # a^q = a on the ground field, so this can only be a library bug
        raise AssertionError("degree q+1 Frobenius witness failed to fill")
    params = {"n": n, "d": dcap, "q": q, "r": None, "t": None}
    extras = {
        "forms_scanned": scanned,
        "points": len(points),
        "space_filling_found": filling,
        "witness": poly.format_form(witness),
        "witness_degree": q + 1,
        "witness_fills": witness_fills,
    }
    return _finish(
        "space-filling", params, len(filling), "space-filling-degree",
        None, started, extras,
    )


def separation_search(
    samples: int,
    n: int,
    d: int,
    q: int,
    r: int = 1,
    seed: int = 0,
) -> dict:
    """Hunt for transverse-but-not-very-transverse pairs; observational.

    Samples smooth degree-d hypersurfaces in P^n over F_q and classifies
    every transverse r-subspace with the exact very-transversality
    decision.  Only r = 1 (lines) and r = n-1 (hyperplanes, where
    separation is impossible by definition) are supported at desk scale.
    An empty result is logged as such and proves nothing.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if d < 1:
        raise ValueError("degree must be >= 1")
    if r != 1 and r != n - 1:
        raise ValueError("supported subspace ranks: 1 and n-1")
    config.check_nvars(n + 1)
    fld = _field_of_order(q)
    caps = config.current_caps()
    if r == 1:
        lines = projgeom.count_points(n, fld) * projgeom.count_points(n - 1, fld)
        caps.check_enum(lines, "line enumeration")
    else:
        caps.check_enum(projgeom.count_points(n, fld), "hyperplane scan")
    caps.check_enum(math.comb(n + d, n), "monomials of a sampled form")
    rng = random.Random(seed)
    started = time.perf_counter()
    monos = list(poly.monomials_of_degree(n + 1, d))
    sampled = 0
    draws = 0
    tested = 0
    separations = []
    max_draws = 200 * samples
    while sampled < samples and draws < max_draws:
        draws += 1
        terms = {m: rng.randrange(fld.order) for m in monos}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        X = locus.Hypersurface(poly.Form(fld, n + 1, d, terms))
        if not certify.ensure_smooth(X):
            continue
        sampled += 1
        candidates = (
            projgeom.all_lines(n, fld)
            if r == 1
            else projgeom.all_hyperplanes(n, fld)
        )
        # one candidate at a time, not certify.very_transverse_verdicts: the
        # next sampled form is drawn from the same rng, so the stream
        # decides which forms the report lists
        for E in candidates:
            verdict, method = certify.decide_very_transverse(X, E, rng)
            if method == "not-transverse":
                continue
            tested += 1
            if verdict == "no":
                separations.append(
                    {
                        "form": poly.format_form(X.form),
                        "subspace": projgeom.format_subspace(E),
                    }
                )
    return {
        "experiment": "separation-search",
        "params": {"n": n, "d": d, "q": q, "r": r, "t": None},
        "observed": len(separations),
        "bound": None,
        "bound_formula": None,
        "citation": "whether transversality implies very transversality in "
        "positive characteristic is open; empty output proves nothing",
        "verdict": "observational",
        "runtime_ms": int((time.perf_counter() - started) * 1000),
        "seed": seed,
        "samples_requested": samples,
        "smooth_sampled": sampled,
        "draws": draws,
        "transverse_tested": tested,
        "separations": separations,
    }
