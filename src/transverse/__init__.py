"""Exact machinery for transversality of linear subspaces to hypersurfaces
over finite fields.

The package certifies, at desk scale and with exact arithmetic throughout:

* smoothness and reducedness of hypersurface sections by linear subspaces,
* transversality and very-transversality (transverse and contained in a
  transverse hyperplane) of points, lines, planes and flags,
* emptiness and dimension of projective schemes given by homogeneous forms,

and it searches for transverse lines and very-transverse flags under the
counting thresholds that guarantee their existence, auditing every counting
bound it relies on against exhaustive enumeration on small fields.

Modules, bottom up: ``config`` (caps, errors), ``linalg`` (exact kernels),
``gf`` (finite fields and towers), ``poly`` (sparse homogeneous forms),
``projgeom`` (points and linear subspaces), ``locus`` (hypersurfaces and
tangency loci), ``certify`` (emptiness, dimension and transversality
certificates), ``search`` (threshold-gated searches), ``audit`` (bound
audits and reports), ``cli`` (command line).  Field elements are int codes
throughout.
"""

__version__ = "0.1.0"

__all__ = [
    "config",
    "linalg",
    "gf",
    "poly",
    "projgeom",
    "locus",
    "certify",
    "search",
    "audit",
    "cli",
]
