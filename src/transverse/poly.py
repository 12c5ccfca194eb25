"""Sparse homogeneous forms over finite fields.

Form keeps a map from exponent vectors to nonzero coefficient codes; every
exponent vector has the same total degree, checked at construction (forms
the library builds itself, by restriction, partials, products and sums,
come through Form._built and are not checked again).  Forms
are immutable and hashable, so they can be shared freely across threads
and used as cache keys.  A Form offers construction, equality, hashing,
+ and Form * Form; every other operation is a function here on its term
map.  Binary forms dehomogenize to univariate code
lists, on which ``linalg`` does the arithmetic.

Restriction has one kernel, restrict_many: forms evaluated at the
principal lattice of each span of a stack (_form_values, the one evaluator
of forms at many points) and interpolated by Newton on that lower set.
substitute_rows is its one-span case; no restriction multiplies term maps.

The monomial order of every coefficient row is defined here alone, lex
(monomials_of_degree): monomials and monomial_index, and, for Macaulay
matrices, monomial_factors and product_index, the position of a product
in closed form.

The one text grammar of the package lives here, for element text
(``parse_element``) and form text (``parse_form``) alike: one tokenizer of
(token, offset) pairs and one recursive sum-of-products parser.  A term is
a product of factors, joined by * or written side by side: integers,
powers of t inside coefficients, powers of x<i> in forms, and
parenthesized coefficients, such as 2*x0^3 - (t+1) x1*x2^2.  Text outside
the grammar raises ParseError, which carries the offset of the offending
character.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np

from . import config, gf, linalg


# ---------------------------------------------------------------------------
# homogeneous forms


class Form:
    """Homogeneous polynomial in nvars variables x0..x(nvars-1).

    terms maps exponent tuples (length nvars, summing to degree) to nonzero
    coefficient codes.  The zero form keeps its declared degree so that
    restriction and arithmetic preserve grading information.
    """

    __slots__ = ("field", "nvars", "degree", "terms")

    def __init__(self, field: gf.Field, nvars: int, degree: int, terms):
        if nvars < 1:
            raise ValueError("a form needs at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for exps, c in dict(terms).items():
            code = int(c)
            if code == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            if sum(exps) != degree:
                raise ValueError(
                    f"monomial {exps} has degree {sum(exps)}, form declares {degree}"
                )
            clean[exps] = code
        self._fill(field, nvars, degree, clean)

    @classmethod
    def _built(cls, field: gf.Field, nvars: int, degree: int, terms: dict):
        """A form from a term map the library has just built: exponent
        tuples of length nvars summing to degree, with nonzero int codes.
        Nothing is checked, and the map is kept, not copied."""
        self = object.__new__(cls)
        self._fill(field, nvars, degree, terms)
        return self

    def _fill(self, field, nvars, degree, terms):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Form is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.field.key, self.nvars, self.degree, tuple(sorted(self.terms.items())))
        )

    def __add__(self, other):
        if (
            not isinstance(other, Form)
            or other.field != self.field
            or other.nvars != self.nvars
        ):
            raise ValueError("forms over different rings")
        if self.is_zero():
            return other
        if other.degree != self.degree and not other.is_zero():
            raise ValueError("adding forms of different degrees")
        F = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = F.add(terms.get(e, 0), c)
        terms = {e: c for e, c in terms.items() if c}
        return Form._built(F, self.nvars, self.degree, terms)

    def __mul__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if other.field != self.field or other.nvars != self.nvars:
            raise ValueError("forms over different rings")
        return Form._built(
            self.field,
            self.nvars,
            self.degree + other.degree,
            _mul_terms(self.field, self.terms, other.terms),
        )

    def __repr__(self):
        return format_form(self)


def _mul_terms(fld: gf.Field, a: dict, b: dict) -> dict:
    """Product of two raw term maps (exponent tuple -> nonzero code)."""
    add, mul = fld.add, fld.mul
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = add(out.get(e, 0), mul(c1, c2))
    return {e: c for e, c in out.items() if c}


def form_specialize_last(F: Form, prefix, E: gf.Field):
    """Coefficients (codes in E, low degree first, trimmed) of F(prefix, z)
    as a polynomial in the last variable z."""
    last = F.nvars - 1
    emb = functools.partial(gf.embed_code, F.field, E)
    coeffs = [0] * (F.degree + 1)
    for exps, c in F.terms.items():
        v = emb(c)
        for code, e in zip(prefix, exps):
            if e:
                if code == 0:
                    v = 0
                    break
                v = E.mul(v, E.pow(code, e))
        if v:
            ze = exps[last]
            coeffs[ze] = E.add(coeffs[ze], v)
    return linalg.u_trim(coeffs)


def form_eval_codes(F: Form, codes, E: gf.Field) -> int:
    """Value of F at a point given by coordinate codes in E (an extension
    of F's field), as a code in E."""
    if len(codes) != F.nvars:
        raise ValueError(f"expected {F.nvars} coordinates, got {len(codes)}")
    return linalg.u_eval(E, form_specialize_last(F, codes[:-1], E), codes[-1])


def form_partials(F: Form):
    """The nvars formal partial derivatives, degree d-1 each (or zero).
    itertools.compress picks out each term's nonzero exponents, so the loop
    runs once per nonzero exponent rather than nvars x terms times."""
    fld = F.field
    out = [{} for _ in range(F.nvars)]
    columns = range(F.nvars)
    for exps, c in F.terms.items():
        for i in itertools.compress(columns, exps):
            coef = fld.mul_int(c, exps[i])
            if coef:
                # the new exponents determine exps, so no two terms meet
                out[i][exps[:i] + (exps[i] - 1,) + exps[i + 1 :]] = coef
    deg = max(F.degree - 1, 0)
    return [Form._built(fld, F.nvars, deg, terms) for terms in out]


# ---------------------------------------------------------------------------
# restriction: forms at many points, and coefficients by interpolation


@functools.lru_cache(maxsize=64)
def monomials(nvars: int, degree: int) -> tuple:
    """monomials_of_degree as a tuple, the order of every coefficient row."""
    return tuple(monomials_of_degree(nvars, degree))


@functools.lru_cache(maxsize=64)
def monomial_index(nvars: int, degree: int) -> dict:
    """The position of every exponent vector in monomials(nvars, degree)."""
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


@functools.lru_cache(maxsize=64)
def monomial_factors(nvars: int, degree: int) -> np.ndarray:
    """monomials(nvars, degree) as factor lists: a read-only (M, degree)
    array whose row m holds the variable of each factor of the m-th
    monomial in ascending order, x0^2*x2 as (0, 0, 2).
    itertools.combinations_with_replacement lists them in the same order."""
    seqs = list(itertools.combinations_with_replacement(range(nvars), degree))
    out = np.array(seqs, dtype=np.min_scalar_type(nvars)).reshape(len(seqs), degree)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def product_index(nvars: int, a: int, b: int) -> np.ndarray:
    """The position in monomials(nvars, a + b) of every product: an (M, K)
    array whose row m holds that of the m-th monomial of degree a times
    each monomial of degree b.  Cached per shape: a run reuses few (21 in a
    flags pass, the most of any benchmark workload).

    A position is a closed-form rank: in the lex order of monomials, the
    exponent vector e of degree N comes after the sum over i < nvars - 1 of
    C(nvars - 1 - i + j_i, j_i) others, j_i = N - (e_0 + ... + e_i) - 1,
    the terms with j_i < 0 dropped.  e_0 + ... + e_i of a product is the
    count of its factors' variables up to i, read off monomial_factors, so
    no exponent vector is built.
    """
    N = a + b
    binom = np.array(
        [[0] + [math.comb(nvars - 1 - i + j, j) for j in range(N)] for i in range(nvars - 1)],
        dtype=np.intp,
    ).reshape(nvars - 1, N + 1)
    left, right = monomial_factors(nvars, a), monomial_factors(nvars, b)
    out = np.zeros((len(left), len(right)), dtype=np.intp)
    for i in range(nvars - 1):
        # column j_i + 1 of binom[i], whose column 0 stands for j_i < 0
        rest = N - (left <= i).sum(axis=1)
        out += binom[i, rest[:, None] - (right <= i).sum(axis=1)]
    return out


def coefficients(G: Form, V) -> np.ndarray:
    """The coefficient row of G in monomials order, an array of V, the array
    view of G's field; only G's terms are read."""
    index = monomial_index(G.nvars, G.degree)
    row = np.zeros(len(index), dtype=V.dtype)
    row[[index[e] for e in G.terms]] = list(G.terms.values())
    return row


def array_form(E: gf.Field, k: int, d: int, row) -> Form:
    """The form over E in k variables of degree d whose coefficients, in
    monomials order, are the codes of the array row."""
    terms = {m: c for m, c in zip(monomials(k, d), row.tolist()) if c}
    return Form._built(E, k, d, terms)


def substitute_rows(F: Form, rows, E: gf.Field | None = None) -> Form:
    """F(u . B) for a raw parametrization matrix B, whose entries are codes
    in E (an extension of F's field, by default F's field itself); the
    result is a form over E in len(B) variables, by restrict."""
    rows = list(rows)
    if any(len(r) != F.nvars for r in rows):
        raise ValueError("parametrization rows must have nvars columns")
    return restrict([F], [rows], F.field if E is None else E)[0][0]


def restrict(forms, bases, E: gf.Field) -> list:
    """For each basis B in bases, row lists of codes in E of any lengths,
    the forms G(u . B) as forms over E, by one restrict_many call per
    number of rows."""
    out = [None] * len(bases)
    by_rows = {}
    for s, B in enumerate(bases):
        by_rows.setdefault(len(B), []).append(s)
    for k, idx in by_rows.items():
        coefs = restrict_many(forms, [bases[s] for s in idx], E)
        for j, s in enumerate(idx):
            out[s] = [array_form(E, k, G.degree, c[j]) for G, c in zip(forms, coefs)]
    return out


def exponents_needed(forms) -> list:
    """Every exponent past the first that a term of the forms reads, or
    that square-and-multiply reaches it through, in increasing order."""
    need = set()
    for G in forms:
        for exps in G.terms:
            for e in exps:
                while e > 1 and e not in need:
                    need.add(e)
                    e //= 2
    return sorted(need)


def _form_values(V, forms, coefs, points, need) -> list:
    """The value of each form at points, an (..., nvars) code array of the
    array view V of an extension E of the forms' field, as an (...) array;
    coefs holds each form's coefficients in E, in term order.

    The points are raised, by square-and-multiply, only to the exponents
    in need (exponents_needed of the forms), and each form is summed term
    by term into one accumulator, so terms are never stacked.
    """
    powers = {1: points}  # powers[e] holds every coordinate to the e
    for e in need:
        h = powers[e // 2]
        x = V.mul(h, h)
        powers[e] = V.mul(x, points) if e % 2 else x
    shape = points.shape[:-1]
    out = []
    for G, cs in zip(forms, coefs):
        values = None
        for exps, c in zip(G.terms, cs):
            term = None
            for j, e in enumerate(exps):
                if e:
                    x = powers[e][..., j]
                    term = x if term is None else V.mul(term, x)
            if term is None:  # the constant term of a form of degree 0
                term = np.full(shape, c, dtype=V.dtype)
            elif c != 1:
                term = V.mul(c, term)
            values = term if values is None else V.add(values, term)
        out.append(np.zeros(shape, dtype=V.dtype) if values is None else values)
    return out


def _run(idx):
    """An index array as a plain slice when it runs over consecutive
    positions, which numpy reads and writes without a gather."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


@functools.lru_cache(maxsize=32)
def _newton_plan(E: gf.Field, k: int, d: int) -> tuple:
    """The principal lattice of restrict_many for degree d in k variables
    over E, and the steps and constants of its Newton transform.  Point i
    is (1, a) for the vector a = monomials(k, d)[i][1:], read as node
    codes; the lattice is the (N, k - 1) array of those vectors, in E's
    view.

    The divided differences, as (level l, target, source, rank): for each
    axis j and each level l = 1..d in turn, every point a with a_j >= l
    (target) and the point a - e_j (source), and a_j - l (rank), the
    position of the target's reciprocal among the level's.  Then the
    change to monomials, as (node n, target, source): for each axis j and
    each level n = d-1..1, every point a with a_j >= n and |a| < d, and
    the point a + e_j; level 0 multiplies by the node 0 and is skipped.
    Targets, sources and ranks are plain slices where they are consecutive,
    which they always are for k = 2.  The constants: level l's reciprocals
    1 / (x_i - x_(i-l)), i = l..d, x_i the code i, and the nodes -x_n.
    """
    mons = monomials(k, d)
    index = monomial_index(k, d)
    lattice = np.array(mons, dtype=np.intp).reshape(len(mons), k)
    total = lattice[:, 1:].sum(axis=1)

    def moved(points, j, step):
        # the positions of the points a + step * e_j
        out = lattice[points].copy()
        out[:, 0] -= step
        out[:, j] += step
        return np.array([index[tuple(e)] for e in out.tolist()], dtype=np.intp)

    divided, horner = [], []
    for j in range(1, k):
        for l in range(1, d + 1):
            tgt = np.flatnonzero(lattice[:, j] >= l)
            rank = lattice[tgt, j] - l
            divided.append((l, _run(tgt), _run(moved(tgt, j, -1)), _run(rank)))
    for j in range(1, k):
        for n in range(d - 1, 0, -1):
            tgt = np.flatnonzero((lattice[:, j] >= n) & (total < d))
            horner.append((n, _run(tgt), _run(moved(tgt, j, 1))))
    V = E.arrays()
    reciprocal = tuple(
        V.array([E.inv(E.sub(i, i - l)) for i in range(l, d + 1)])[:, None]
        for l in range(1, d + 1)
    )
    neg = tuple(E.neg(n) for n in range(d + 1))
    lattice = lattice[:, 1:].astype(V.dtype)
    return lattice, tuple(divided), tuple(horner), reciprocal, neg


# codes one batched array pass holds at once, whatever the degree or size:
# a pass of restrict_many, a stack of certify's square Macaulay matrices
KERNEL_ELEMENTS = 1 << 16


def kernel_width(N: int, nvars: int, need, nforms: int) -> int:
    """Spans per pass of restrict_many at N lattice points within
    KERNEL_ELEMENTS codes: per span, the points and their powers (need),
    each form's values and two temporaries, and a few (N,) temporaries."""
    return max(1, KERNEL_ELEMENTS // (N * (nvars * (1 + len(need)) + 3 * nforms + 4)))


def restrict_many(forms, bases, E: gf.Field) -> list:
    """The restriction G(u . B) of each form G, all over one subfield of E,
    to each basis B of a nonempty stack ``bases``, an (S, k, nvars) nested
    sequence of codes in E: for each form an (S, N) code array of E's view,
    its coefficients in monomials(k, deg G) order.

    The forms of one degree d are evaluated (_form_values) at the images
    u . B of the principal lattice u = (1, a), |a| <= d, with the codes
    0..d as nodes, in every span.  The lattice is a lower set, so Newton
    interpolation runs one axis at a time (Dyn and Floater, J. Approx.
    Theory 177, 2014): the divided differences of every axis first, then
    the change from the Newton to the monomial basis of every axis, each
    step one whole-array operation over the values of a pass
    (_newton_plan).  Each distinct coefficient of a degree's forms is
    mapped into E once, and as many spans go at once as kernel_width
    allows.  An E of at most d elements has no d + 1 distinct nodes: the
    degree is restricted over the smallest extension with enough, and its
    coefficients are mapped back.
    """
    V = E.arrays()
    stack = V.array(bases)
    S, k, nvars = stack.shape
    out = [None] * len(forms)
    degrees = {}
    for i, G in enumerate(forms):
        degrees.setdefault(G.degree, []).append(i)
    for d, idx in degrees.items():
        group = [forms[i] for i in idx]
        if E.order <= d:
            L = gf.extension_with(E, d + 1)
            up = np.array([gf.embed_code(E, L, c) for c in range(E.order)])
            back = np.argsort(up)  # the codes of E by their images' order
            lifted = restrict_many(group, up[stack.astype(np.int64)], L)
            for i, coefs in zip(idx, lifted):
                at = np.searchsorted(up[back], coefs.astype(np.int64))
                out[i] = back[at].astype(V.dtype)
            continue
        lattice, divided, horner, reciprocal, neg = _newton_plan(E, k, d)
        coefs = [list(G.terms.values()) for G in group]
        F = group[0].field
        if F != E and F.m > 1:  # constants keep their codes
            distinct = {c for row in coefs for c in row}
            image = {c: gf.embed_code(F, E, c) for c in distinct}
            coefs = [[image[c] for c in row] for row in coefs]
        need = exponents_needed(group)
        width = kernel_width(len(lattice), nvars, need, len(group))
        parts = []
        for s in range(0, S, width):
            B = stack[s : s + width]
            points = B[None, :, 0]  # (N, w, nvars) once the other rows are in
            for i in range(1, k):
                points = V.add(points, V.mul(lattice[:, i - 1, None, None], B[None, :, i]))
            c = np.stack(_form_values(V, group, coefs, points, need))  # (G, N, w)
            del points
            for l, tgt, src, rank in divided:
                diff = V.add(c[:, tgt], V.mul(neg[1], c[:, src]))
                c[:, tgt] = V.mul(reciprocal[l - 1][rank], diff)
            for n, tgt, src in horner:
                c[:, tgt] = V.add(c[:, tgt], V.mul(neg[n], c[:, src]))
            parts.append(c.transpose(0, 2, 1))  # (G, w, N)
        for i, coefs in zip(idx, np.concatenate(parts, axis=1)):
            out[i] = coefs
    return out


def binary_squarefree(F: Form) -> bool:
    """Whether a nonzero binary form is a product of distinct linear forms.

    Splits off the multiplicity at [1:0] (the power of x1 dividing F) and
    tests the dehomogenization at x1=1 for squarefreeness.
    """
    inf_mult, f = binary_dehomogenize(F)
    return inf_mult <= 1 and linalg.u_squarefree(F.field, f)


def binary_squarefree_many(E: gf.Field, f) -> np.ndarray:
    """Whether each row of f, an (S, d+1) code array of E's view holding
    binary forms of degree d in monomials order, is nonzero and squarefree,
    as an (S,) bool array: binary_squarefree of each nonzero row.

    A row whose x1^d coefficient is nonzero has no root at [0:1], so it is
    squarefree exactly when f(1, x1), of degree d, is; a row whose x1^d
    coefficient is zero but whose x0^d coefficient is not is reversed first,
    f(x0, x1) -> f(x1, x0) keeping squarefreeness.  All of those go through
    one linalg.u_squarefree_many call; only the nonzero rows zero at both
    ends take the scalar binary_squarefree.
    """
    top, bottom = f[:, -1] != 0, f[:, 0] != 0
    ends = top | bottom
    out = np.zeros(len(f), dtype=bool)
    if ends.any():
        rows = np.where(top[:, None], f, f[:, ::-1])[ends]
        out[ends] = linalg.u_squarefree_many(E, rows)
    d = f.shape[1] - 1
    for s in np.flatnonzero(~ends & (f != 0).any(axis=1)).tolist():
        out[s] = binary_squarefree(array_form(E, 2, d, f[s]))
    return out


def binary_dehomogenize(F: Form):
    """(multiplicity of the root [1:0], the codes of F(x, 1) low degree first).

    deg F(x,1) = degree - that multiplicity; finite roots keep their
    multiplicities in F(x,1).
    """
    if F.nvars != 2:
        raise ValueError("binary forms only")
    if F.is_zero():
        raise ValueError("zero form")
    max_e0 = max(e[0] for e in F.terms)
    coeffs = [0] * (max_e0 + 1)
    for (e0, _e1), c in F.terms.items():
        coeffs[e0] = c
    return F.degree - max_e0, tuple(coeffs)


# ---------------------------------------------------------------------------
# text grammar
#
#   sum    := sign* term (sign+ term)*          sign is + or -
#   term   := factor ("*"? factor)*
#   factor := integer | t ["^" integer] | x<i> ["^" integer] | "(" sum ")"
#
# Element text is a coefficient: t may appear, x<i> and parentheses may not.
# In form text x<i> appears outside parentheses and t only inside them.

_TOKEN = re.compile(r"(x\d+|\d+|[-t()+*^])|\S")
_FACTOR_START = re.compile(r"[\dtx(]")


class ParseError(ValueError):
    """Text outside the grammar; offset indexes the offending character."""

    def __init__(self, reason: str, offset: int):
        super().__init__(f"{reason} at offset {offset}")
        self.reason = reason
        self.offset = offset


def _tokenize(text: str):
    """(token, offset) pairs, closed by ("", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(1) is None:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.group(), m.start()))
    tokens.append(("", len(text)))
    return tokens


def _unexpected(tok: str, at: int) -> ParseError:
    return ParseError(f"unexpected {tok!r}" if tok else "unexpected end of text", at)


class _Parser:
    def __init__(self, field: gf.Field, text: str, nvars: int | None = None):
        self.field = field
        self.nvars = nvars
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def sum(self, inner: bool, closer: str):
        """Terms (code, {var: exp}, offset) up to and past the closer token
        ("" for the end of the text); inner means inside a coefficient."""
        terms = []
        while True:
            neg = False
            while self.peek() in ("+", "-"):
                neg ^= self.peek() == "-"
                self.i += 1
            at = self.tokens[self.i][1]
            code, exps = 1, {}
            while True:
                code = self.factor(inner, code, exps)
                if self.peek() == "*":
                    self.i += 1
                elif not _FACTOR_START.match(self.peek()):
                    break
            terms.append((self.field.neg(code) if neg else code, exps, at))
            if self.peek() not in ("+", "-"):
                if self.peek() != closer:
                    raise _unexpected(*self.tokens[self.i])
                self.i += 1
                return terms

    def factor(self, inner: bool, code: int, exps: dict) -> int:
        """code times the next factor; a variable's power goes into exps."""
        F = self.field
        tok, at = self.tokens[self.i]
        self.i += 1
        if tok.isdigit():
            return F.mul_int(code, int(tok))
        if tok == "t":
            if F.m == 1:
                raise ParseError(
                    "coefficient outside the field: 't' needs an extension (m > 1)", at
                )
            if not inner:
                raise ParseError("bare t; parenthesize t-polynomial coefficients", at)
            return F.mul(code, F.pow(F.encode([0, 1]), self.exponent()))
        if tok.startswith("x"):
            if inner:
                raise ParseError(f"variable {tok} inside a coefficient", at)
            var = int(tok[1:])
            if self.nvars is not None and var >= self.nvars:
                raise ParseError(f"{tok} out of range for {self.nvars} variables", at)
            exps[var] = exps.get(var, 0) + self.exponent()
            return code
        if tok == "(" and not inner:
            value = 0
            for c, _, _ in self.sum(True, ")"):
                value = F.add(value, c)
            return F.mul(code, value)
        raise _unexpected(tok, at)

    def exponent(self) -> int:
        if self.peek() != "^":
            return 1
        tok, at = self.tokens[self.i + 1]
        if not tok.isdigit():
            raise ParseError("bad exponent", at)
        self.i += 2
        return int(tok)


def parse_element(field: gf.Field, text: str) -> int:
    """The code of an element written in the grammar above, such as
    2*t^2 + t + 1 (t only when m > 1)."""
    acc = 0
    for code, _, _ in _Parser(field, text).sum(True, ""):
        acc = field.add(acc, code)
    return acc


def parse_form(field: gf.Field, text: str, nvars: int | None = None) -> Form:
    """Parse form text into a Form.

    Homogeneity is enforced; nvars is inferred from the largest variable
    index when not given.  Text errors raise ParseError with their offset;
    more than config.MAX_NVARS variables or a degree above
    config.MAX_FORM_DEGREE raises CapExceededError.
    """
    terms = _Parser(field, text, nvars).sum(False, "")
    if nvars is None:
        nvars = 1 + max((v for _, e, _ in terms for v in e), default=-1)
        if nvars < 1:
            raise ParseError("cannot infer variable count from a constant form", 0)
    config.check_nvars(nvars)
    degree = sum(terms[0][1].values())
    for _, e, at in terms:
        if sum(e.values()) != degree:
            degrees = sorted({sum(e.values()) for _, e, _ in terms})
            raise ParseError(f"form text is not homogeneous: degrees {degrees}", at)
    config.check_form_degree(degree)
    acc: dict = {}
    for code, e, _ in terms:
        vec = tuple(e.get(v, 0) for v in range(nvars))
        acc[vec] = field.add(acc.get(vec, 0), code)
    return Form(field, nvars, degree, acc)


def format_form(F: Form) -> str:
    """Canonical text for a form; parse_form(format_form(F)) round-trips."""
    if F.is_zero():
        return "0"
    parts = []
    for exps in sorted(F.terms, reverse=True):
        c = F.terms[exps]
        mono = "*".join(
            f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e
        )
        cs = F.field.format(c)
        if not mono:
            parts.append(f"({cs})" if "t" in cs else cs)
        elif cs == "1":
            parts.append(mono)
        else:
            cs = f"({cs})" if "t" in cs else cs
            parts.append(f"{cs}*{mono}")
    return " + ".join(parts)


def monomials_of_degree(nvars: int, degree: int):
    """All exponent vectors of the given total degree, lex order, without
    recursion: a step takes one from the last nonzero exponent before the
    final one and moves it, with everything after it, to its neighbour."""
    if degree < 0:
        return
    exps = [degree] + [0] * (nvars - 1)
    while True:
        yield tuple(exps)
        i = nvars - 2
        while i >= 0 and not exps[i]:
            i -= 1
        if i < 0:
            return
        rest = exps[-1] + 1
        exps[-1] = 0
        exps[i] -= 1
        exps[i + 1] = rest
