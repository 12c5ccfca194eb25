"""Threshold-gated searches for transverse and very-transverse subspaces.

Every search scans a deterministic candidate order and returns the first
hit, so failure counts are reproducible and comparable with the counting
bounds that guarantee success.  Each search carries a gate: the field-size
threshold above which exhaustion is impossible.  Exhausting a gated scan
with exact rejections raises TheoremViolationError, because it would
falsify the underlying counting argument rather than report a fact.

The reduced searches share one descent through the hyperplanes of the
current subspace, certifying X once and each section against X itself.
Each of their scans, down to the transverse lines, is one loop over
certify.reduced_sections, which yields every candidate with its verdict.
The flag search tallies Las-Vegas rejections (undetermined dimension
tests) separately; before a gated exhaustion is declared, they are
retried with fresh randomness and then settled exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import certify, config, locus, projgeom

_MODES = ("very-transverse", "reduced-line", "reduced-hyperplane")


def required_q(
    n: int, d: int, r: int | None = None, mode: str = "very-transverse"
) -> int:
    """Smallest guaranteed-sufficient field size for the given search mode.

    very-transverse: (n - r) * d * (d - 1)^r, with the quadric and linear
    cases collapsing to tiny constants (they hold for every field, but
    outside the stated hypothesis of the counting argument; see
    gate_status).  reduced-line: ceil(3/2 * d * (d - 1)).
    reduced-hyperplane: d*(d-1) + 1 in the surface case n = 3, d for
    n >= 4.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if d < 1:
        raise ValueError("degree must be positive")
    if mode == "very-transverse":
        if r is None or not 0 <= r <= n - 1:
            raise ValueError("need 0 <= r <= n-1 for very-transverse mode")
        if d == 1:
            return 1
        if d == 2:
            return 2
        return (n - r) * d * (d - 1) ** r
    if mode == "reduced-line":
        return -(-3 * d * (d - 1) // 2)
    if n < 3:
        raise ValueError("reduced-hyperplane mode needs ambient dimension >= 3")
    return d * (d - 1) + 1 if n == 3 else d


def gate_status(
    mode: str, threshold: int, q: int, caveat: str | None = None
) -> dict:
    return {
        "mode": mode,
        "threshold": threshold,
        "q": q,
        "satisfied": q >= threshold,
        "caveat": caveat,
    }


def _vt_gate(n: int, d: int, r: int, q: int) -> dict:
    caveat = "outside stated hypothesis" if d <= 2 else None
    return gate_status("very-transverse", required_q(n, d, r), q, caveat)


@dataclass(frozen=True, eq=False)
class Flag:
    """A full flag of subspaces transverse to a fixed hypersurface.

    levels[s] has projective dimension s and contains levels[s-1]; each
    level carries the certificate record produced during the search."""

    target: locus.Hypersurface
    levels: tuple
    certificates: tuple

    def __post_init__(self):
        if len(self.levels) != len(self.certificates):
            raise ValueError("one certificate per level")
        for s, H in enumerate(self.levels):
            if H.dim != s:
                raise ValueError("flag levels must have dimensions 0, 1, ...")
            if s and not projgeom.subspace_le(self.levels[s - 1], H):
                raise ValueError("flag levels must be nested")

    @property
    def top(self):
        return self.levels[-1]

    def to_dict(self):
        return {
            "levels": [projgeom.format_subspace(H) for H in self.levels],
            "certificates": list(self.certificates),
        }


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """Result of one deterministic scan: the first hit, or an exhaustion
    report with rejection tallies and the gate that was in force."""

    kind: str
    found: object | None
    tested: int
    rejections: dict
    gate: dict
    seed: int | None = None
    chain: tuple = ()
    steps: tuple = ()
    note: str = ""

    def succeeded(self) -> bool:
        return self.found is not None

    def to_dict(self):
        d = {
            "kind": self.kind,
            "found": _serialize_found(self.found),
            "tested": self.tested,
            "rejections": dict(self.rejections),
            "gate": dict(self.gate),
            "seed": self.seed,
        }
        if self.chain:
            d["chain"] = [projgeom.format_subspace(H) for H in self.chain]
        if self.steps:
            d["steps"] = [dict(s) for s in self.steps]
        if self.note:
            d["note"] = self.note
        return d


def _serialize_found(found):
    if found is None:
        return None
    if isinstance(found, projgeom.LinearSubspace):
        return projgeom.format_subspace(found)
    if isinstance(found, Flag):
        return found.to_dict()
    raise TypeError(f"cannot serialize {type(found).__name__}")


# ---------------------------------------------------------------------------
# reduced sections: one descent through hyperplanes of the current subspace


def _require_reduced_input(X: locus.Hypersurface, rng) -> None:
    if X.degree < 2:
        raise ValueError("search needs degree at least 2")
    if not certify.is_reduced_form(X.form, rng=rng):
        raise ValueError("hypersurface must be reduced")


def _hyperplanes_of(T: projgeom.LinearSubspace):
    """Hyperplanes of the subspace T, in the order of T's dual points: each
    row u of a hyperplane of P^dim(T) becomes u . T.basis, and the rows stay
    in RREF (those of all_hyperplanes are e_k - c_k e_f)."""
    F = T.field
    for H in projgeom.all_hyperplanes(T.dim, F):
        yield projgeom.LinearSubspace(
            F, [projgeom.subspace_point(T, u, F).coords for u in H.basis]
        )


def _reduced_hyperplane_of(
    X: locus.Hypersurface, T: projgeom.LinearSubspace, rng, seed
) -> SearchOutcome:
    """One level of the descent: the first hyperplane H of T with X cap H
    proper and reduced, certified against X itself.  Exhaustion above the
    reduced-hyperplane gate of P^dim(T) is a theorem violation."""
    gate = gate_status(
        "reduced-hyperplane",
        required_q(T.dim, X.degree, mode="reduced-hyperplane"),
        X.field.order,
    )
    tested = 0
    rej = {"improper": 0, "not_reduced": 0}
    for H, verdict in certify.reduced_sections(X, _hyperplanes_of(T), rng):
        tested += 1
        if verdict:
            return SearchOutcome("hyperplane", H, tested, rej, gate, seed)
        rej["improper" if verdict is None else "not_reduced"] += 1
    if gate["satisfied"]:
        raise config.TheoremViolationError(
            "no reduced hyperplane section although "
            f"q = {X.field.order} >= {gate['threshold']}"
        )
    return SearchOutcome("hyperplane", None, tested, rej, gate, seed)


def _whole_space(X: locus.Hypersurface) -> projgeom.LinearSubspace:
    n = X.ambient
    return projgeom.LinearSubspace(
        X.field, [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    )


def find_reduced_hyperplane(
    X: locus.Hypersurface, seed: int | None = None
) -> SearchOutcome:
    """First hyperplane whose section of X is proper and reduced: one level
    of the reduced descent, run on all of P^n.

    Requires X itself reduced of degree >= 2 in P^n, n >= 3.  Above the
    threshold (d(d-1)+1 for n = 3, d for n >= 4) exhaustion is impossible.
    """
    rng = random.Random(0 if seed is None else seed)
    if X.ambient < 3:
        raise ValueError("hyperplane search needs ambient dimension >= 3")
    _require_reduced_input(X, rng)
    return _reduced_hyperplane_of(X, _whole_space(X), rng, seed)


def find_reduced_plane_section_chain(
    X: locus.Hypersurface, r: int, seed: int | None = None
) -> SearchOutcome:
    """Descend from P^n to an r-plane T through hyperplanes with reduced
    sections at every stage.  Each level scans the hyperplanes of the
    current subspace and certifies X cap H against X itself, so the last
    level's verdict is the certificate for X cap T.

    The chain (dims n-1 down to r, in ambient coordinates) is returned
    alongside T.  Guaranteed above q >= ceil(3/2 d(d-1)).
    """
    n = X.ambient
    if not 2 <= r <= n - 1:
        raise ValueError("need 2 <= r <= n-1")
    rng = random.Random(0 if seed is None else seed)
    _require_reduced_input(X, rng)
    gate = gate_status(
        "reduced-chain",
        required_q(n, X.degree, mode="reduced-line"),
        X.field.order,
    )
    T = _whole_space(X)
    chain = []
    tested = 0
    rej = {"improper": 0, "not_reduced": 0}
    while T.dim > r:
        level = _reduced_hyperplane_of(X, T, rng, seed)
        tested += level.tested
        for k in rej:
            rej[k] += level.rejections[k]
        if not level.succeeded():
            return SearchOutcome(
                "plane-chain", None, tested, rej, gate, seed,
                chain=tuple(chain),
                note=f"stalled in ambient dimension {T.dim}",
            )
        T = level.found
        chain.append(T)
    return SearchOutcome(
        "plane-chain", T, tested, rej, gate, seed, chain=tuple(chain)
    )


# ---------------------------------------------------------------------------
# transverse lines


def find_transverse_line_reduced(
    X: locus.Hypersurface, seed: int | None = None
) -> SearchOutcome:
    """A line meeting the reduced hypersurface X in deg X distinct smooth
    points, found by chaining down to a plane and scanning its lines.

    X is certified reduced once, and every candidate line L is a section
    X cap L certified against X itself through certify.reduced_sections: on
    a line, reduced is transverse.  Guaranteed above q >= ceil(3/2 d(d-1));
    degree 1 (gate 0) degenerates to the first line not inside the
    hyperplane.
    """
    n = X.ambient
    if n < 2:
        raise ValueError("lines need ambient dimension >= 2")
    gate = gate_status(
        "reduced-line",
        required_q(n, X.degree, mode="reduced-line"),
        X.field.order,
    )
    rng = random.Random(0 if seed is None else seed)
    tested = 0
    rej = {"not_transverse": 0}
    chain = ()
    if X.degree == 1:
        candidates = projgeom.all_lines(n, X.field)
    elif n == 2:
        _require_reduced_input(X, rng)
        candidates = projgeom.all_lines(2, X.field)
    else:
        descent = find_reduced_plane_section_chain(X, 2, seed=seed)
        tested += descent.tested
        if not descent.succeeded():
            return SearchOutcome(
                "line", None, tested, rej, gate, seed,
                note="no reduced plane section reached: " + descent.note,
            )
        chain = descent.chain
        candidates = _hyperplanes_of(descent.found)
    for L, verdict in certify.reduced_sections(X, candidates, rng):
        tested += 1
        if verdict:
            return SearchOutcome("line", L, tested, rej, gate, seed, chain=chain)
        rej["not_transverse"] += 1
    if gate["satisfied"]:
        raise config.TheoremViolationError(
            f"no transverse line although q = {X.field.order} "
            f">= {gate['threshold']}"
        )
    return SearchOutcome("line", None, tested, rej, gate, seed, chain=chain)


# ---------------------------------------------------------------------------
# very-transverse flags


def find_very_transverse_flag(
    X: locus.Hypersurface,
    r: int,
    seed: int | None = None,
    caps: config.Caps | None = None,
) -> SearchOutcome:
    """Full flag H_0 c H_1 c ... c H_r, each level very transverse to the
    smooth hypersurface X (the top level only transverse when it is a
    hyperplane, where the notions agree).

    Levels are filled by first-hit scans over the pencil of extensions of
    the previous level.  Gated by q >= (n-r) d(d-1)^r; runs best-effort
    below the gate and reports not-found without judgment.  ``caps``, when
    given, are the current caps for the whole search, certification
    included; None keeps the current ones.
    """
    with config.caps_scope(caps or config.current_caps()):
        if not certify.ensure_smooth(X):
            raise ValueError("flag search is defined for smooth X only")
        if X.degree < 2:
            raise ValueError("flag search needs degree at least 2")
        n = X.ambient
        if not 0 <= r <= n - 1:
            raise ValueError("need 0 <= r <= n-1")
        gate = _vt_gate(n, X.degree, r, X.field.order)
        rng = random.Random(0 if seed is None else seed)
        levels = []
        certs = []
        steps = []
        tested = 0
        for s in range(r + 1):
            if s == 0:
                candidates = projgeom.enumerate_points(n, X.field)
            else:
                candidates = projgeom.enumerate_superspaces(levels[-1], s)
            hit = None
            method = None
            scanned = 0
            certified_rej = 0
            undetermined = []
            # one candidate at a time, not certify.very_transverse_verdicts:
            # the report carries each hit's method and the undetermined
            # count, and the next level draws on the same rng
            for cand in candidates:
                sub = projgeom.point_subspace(cand) if s == 0 else cand
                scanned += 1
                verdict, how = certify.classify_very_transverse(X, sub, rng)
                if verdict == "yes":
                    hit, method = sub, how
                    break
                if verdict == "no":
                    certified_rej += 1
                else:
                    undetermined.append(sub)
            if hit is None and undetermined:
                retry_rng = random.Random(rng.randrange(2**30) ^ 0x5EED)
                remaining = []
                for sub in undetermined:
                    verdict = certify.settle_very_transverse(X, sub, retry_rng)
                    if verdict == "yes":
                        hit, method = sub, "exact"
                        break
                    if verdict == "no":
                        certified_rej += 1
                    else:
                        remaining.append(sub)
                undetermined = remaining
            tested += scanned
            steps.append(
                {
                    "dim": s,
                    "scanned": scanned,
                    "certified_rejections": certified_rej,
                    "undetermined_rejections": len(undetermined) if hit is None else 0,
                }
            )
            if hit is None:
                if gate["satisfied"] and not undetermined and gate["caveat"] is None:
                    raise config.TheoremViolationError(
                        f"flag level {s} exhausted although q = {X.field.order} "
                        f">= {gate['threshold']}"
                    )
                note = (
                    f"level {s} exhausted"
                    + (" with undetermined candidates left" if undetermined else "")
                )
                return SearchOutcome(
                    "flag", None, tested, {}, gate, seed,
                    steps=tuple(steps), note=note,
                )
            levels.append(hit)
            certs.append(
                {
                    "dim": s,
                    "predicate": "transverse" if s == n - 1 else "very-transverse",
                    "method": method,
                }
            )
        flag = Flag(X, tuple(levels), tuple(certs))
        return SearchOutcome(
            "flag", flag, tested, {}, gate, seed, steps=tuple(steps)
        )


# ---------------------------------------------------------------------------
# inequality transcription checks


def check_inequality_lemmas(grid) -> dict:
    """Exact integer verification of the counting lemmas on a parameter
    grid; any point where a gated implication fails is a counterexample
    to the transcription and is reported.

    grid: iterable of (n, d, r, q) tuples.  All lemmas assume d >= 3 and
    the gate q >= (n-r) d(d-1)^r; grid points outside a lemma's
    hypothesis simply skip that check.
    """
    rows = [_inequality_row(*point) for point in grid]
    bad = [c for row in rows for c in _failed_checks(row)]
    return {"ok": not bad, "points": rows, "counterexamples": bad}


def inequality_counterexamples(grid) -> list:
    """The counterexamples of check_inequality_lemmas(grid), with the grid
    streamed: no row outlives its point, so any iterable of points runs
    in memory for its counterexamples alone."""
    return [c for point in grid for c in _failed_checks(_inequality_row(*point))]


def _inequality_row(n: int, d: int, r: int, q: int) -> dict:
    if d < 2 or not 0 <= r <= n - 1 or q < 2:
        raise ValueError(f"bad grid point {(n, d, r, q)}")
    gate = q >= (n - r) * d * (d - 1) ** r
    checks = {}
    if gate and d >= 3:
        if 1 <= r <= n - 2:
            lhs = q ** (n - r)
            rhs = d * (d - 1) ** r * (q + 1) ** (n - r - 1)
            checks["pool-dominates-bad"] = _check(lhs, rhs, lhs > rhs)
            # the induction actually consumes the aggregate form: the
            # whole candidate pool against tangent plus dual-contained
            pool = sum(q**i for i in range(n - r + 1))
            total = d * (d - 1) ** r * (q + 1) ** (n - r - 1) + d * (d - 1) ** (n - 1)
            checks["full-pool-beats-bad"] = _check(pool, total, pool > total)
        if r >= 1:
            need = (n - r + 1) * d * (d - 1) ** (r - 1)
            checks["gate-descends"] = _check(q, need, q >= need)
        if 1 <= r <= n - 3:
            lhs = q ** (n - r - 1)
            rhs = d * (d - 1) ** (n - 1)
            checks["deep-levels"] = _check(lhs, rhs, lhs > rhs)
        if r == n - 2:
            lhs = q * q + q + 1
            rhs = d * (d - 1) ** (n - 2) * (q + d)
            checks["plane-level"] = _check(lhs, rhs, lhs > rhs)
        if r == n - 1:
            rhs = d * (d - 1) ** (n - 1)
            checks["hyperplane-level"] = _check(q + 1, rhs, q + 1 > rhs)
    return {"n": n, "d": d, "r": r, "q": q, "gate": gate, "checks": checks}


def _check(lhs: int, rhs: int, holds: bool) -> dict:
    return {"lhs": lhs, "rhs": rhs, "holds": holds}


def _failed_checks(row: dict) -> list:
    point = (row["n"], row["d"], row["r"], row["q"])
    return [{"point": point, "check": k, **c} for k, c in row["checks"].items()
            if not c["holds"]]
