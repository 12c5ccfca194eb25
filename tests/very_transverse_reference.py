"""The very-transverse decision on schemes that certify's one attempt loop
replaced, kept verbatim (up to module prefixes) as the reference for its
verdicts, methods and rng draws: each step builds the tangency locus and
runs dim_upper_bound on it, so every Las-Vegas attempt slices a SchemeSpec
through _random_slices and asks macaulay_is_empty."""

import random

from transverse import certify, config, locus, projgeom


def classify_very_transverse(
    X: locus.Hypersurface, H: projgeom.LinearSubspace, rng: random.Random
) -> tuple:
    if not certify.ensure_smooth(X):
        raise ValueError("very-transversality is defined for smooth X only")
    if not certify.is_transverse(X, H):
        return "no", "not-transverse"
    if H.dim >= X.ambient - 1:
        return "yes", "direct"
    T = locus.tangency_locus(X, H)
    if certify.dim_upper_bound(T, X.ambient - H.dim - 2, rng=rng).holds():
        return "yes", "las-vegas"
    return "undetermined", "las-vegas"


def settle_very_transverse(
    X: locus.Hypersurface, H: projgeom.LinearSubspace, rng: random.Random
) -> str:
    T = locus.tangency_locus(X, H)
    t = X.ambient - H.dim - 2
    if certify.dim_upper_bound(T, t, rng=rng).holds():
        return "yes"
    try:
        return "yes" if certify.dim_at_most_exact(T, t) else "no"
    except config.SearchInfeasibleError:
        return "undetermined"
