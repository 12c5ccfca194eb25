"""Sparse homogeneous forms over finite fields.

Form keeps a map from exponent vectors to nonzero coefficient codes; every
exponent vector has the same total degree, checked at construction.  Forms
are immutable and hashable, so they can be shared freely across threads
and used as cache keys.  Binary forms dehomogenize to univariate code
lists, on which ``linalg`` does the arithmetic.

The text grammar used by the CLI lives here: terms joined by + and -, a
term being an optional coefficient (integer, or a t-polynomial in
parentheses) times a monomial written as x0^3*x1*x2^2.
"""

from __future__ import annotations

import re

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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

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
        self._chk(other)
        if self.is_zero():
            return other
        F = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = F.add(terms.get(e, 0), c)
        return Form(F, self.nvars, self.degree, terms)

    def __sub__(self, other):
        self._chk(other)
        if self.is_zero():
            return -other
        F = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = F.sub(terms.get(e, 0), c)
        return Form(F, self.nvars, self.degree, terms)

    def __neg__(self):
        F = self.field
        return Form(
            F, self.nvars, self.degree, {e: F.neg(c) for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, Form):
            if other.field != self.field or other.nvars != self.nvars:
                raise ValueError("forms over different rings")
            return Form(
                self.field,
                self.nvars,
                self.degree + other.degree,
                _mul_terms(self.field, self.terms, other.terms),
            )
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Form":
        """The form times the element with code c of its field."""
        F = self.field
        if not 0 <= c < F.order:
            raise ValueError(f"code {c} out of range for {F!r}")
        if c == 0:
            return Form(F, self.nvars, self.degree, {})
        return Form(
            F,
            self.nvars,
            self.degree,
            {e: F.mul(v, c) for e, v in self.terms.items()},
        )

    def _chk(self, other):
        if (
            not isinstance(other, Form)
            or other.field != self.field
            or other.nvars != self.nvars
        ):
            raise ValueError("forms over different rings")
        if other.degree != self.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("adding forms of different degrees")

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


def form_lift(F: Form, E: gf.Field) -> Form:
    """F with its coefficients embedded in the extension E of its field."""
    if E == F.field:
        return F
    return Form(
        E,
        F.nvars,
        F.degree,
        {e: gf.embed_code(F.field, E, c) for e, c in F.terms.items()},
    )


def form_specialize_last(F: Form, prefix, E: gf.Field):
    """Coefficients (codes in E, low degree first, trimmed) of F(prefix, z)
    as a polynomial in the last variable z."""
    last = F.nvars - 1
    emb = (lambda c: gf.embed_code(F.field, E, c)) if E != F.field else (lambda c: c)
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
    """The nvars formal partial derivatives, degree d-1 each (or zero)."""
    out = []
    fld = F.field
    deg = max(F.degree - 1, 0)
    for i in range(F.nvars):
        terms = {}
        for exps, c in F.terms.items():
            e = exps[i]
            if e == 0:
                continue
            coef = fld.mul_int(c, e)
            if coef == 0:
                continue
            ne = exps[:i] + (e - 1,) + exps[i + 1 :]
            terms[ne] = fld.add(terms.get(ne, 0), coef)
        out.append(Form(fld, F.nvars, deg, terms))
    return out


def substitute_rows(F: Form, rows) -> Form:
    """F(u . B) for a raw parametrization matrix B; no basis normalization."""
    fld = F.field
    B = list(rows)
    k = len(B)
    if any(len(r) != F.nvars for r in B):
        raise ValueError("parametrization rows must have nvars columns")
    # x_j = sum_i u_i B[i][j]; powers[j][e] is the raw term map of x_j^e
    unit = [tuple(1 if t == i else 0 for t in range(k)) for i in range(k)]
    lin = [{unit[i]: B[i][j] for i in range(k) if B[i][j]} for j in range(F.nvars)]
    const = (0,) * k
    powers = [[{const: 1}] for _ in range(F.nvars)]
    acc: dict = {}
    for exps, c in F.terms.items():
        term = {const: c}
        for j, e in enumerate(exps):
            if e:
                pw = powers[j]
                while len(pw) <= e:
                    pw.append(_mul_terms(fld, pw[-1], lin[j]))
                term = _mul_terms(fld, term, pw[e])
        for m, v in term.items():
            acc[m] = fld.add(acc.get(m, 0), v)
    return Form(fld, k, F.degree, acc)


def restrict_to_subspace(F: Form, H) -> Form:
    """Restriction of F to the LinearSubspace H, as a form in dim+1
    parameters over H's reduced basis."""
    return substitute_rows(F, H.basis)


def binary_squarefree(F: Form) -> bool:
    """Whether a nonzero binary form is a product of distinct linear forms.

    Splits off the multiplicity at [1:0] (the power of x1 dividing F) and
    tests the dehomogenization at x1=1 for squarefreeness.
    """
    inf_mult, f = binary_dehomogenize(F)
    return inf_mult <= 1 and linalg.u_squarefree(F.field, f)


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

_TOKEN = re.compile(r"\s*(\(|\)|\+|-|\*|\^|x\d+|\d+|t)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad form text at offset {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_form(field: gf.Field, text: str, nvars: int | None = None) -> Form:
    """Parse the CLI polynomial grammar into a Form.

    Terms are joined by + and -; a term is an optional coefficient
    (integer, or a parenthesized t-polynomial) times a product of x<i>^<e>
    factors.  Homogeneity is enforced; nvars is inferred from the largest
    variable index when not given.  A degree above the cap raises
    CapExceededError.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty form text")
    terms = []  # (coeff code, {var: exp})
    i = 0
    sign = 1
    expect_term = True
    cur_coeff = None
    cur_exps: dict[int, int] = {}
    cur_has_body = False

    def flush():
        nonlocal cur_coeff, cur_exps, cur_has_body, sign
        if not cur_has_body:
            raise ValueError(f"empty term in form text {text!r}")
        code = 1 if cur_coeff is None else cur_coeff
        if sign < 0:
            code = field.neg(code)
        terms.append((code, dict(cur_exps)))
        cur_coeff = None
        cur_exps = {}
        cur_has_body = False
        sign = 1

    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            if expect_term:
                if tok == "-":
                    sign = -sign
                i += 1
                continue
            flush()
            sign = 1 if tok == "+" else -1
            i += 1
            expect_term = True
            continue
        if tok == "(":
            # parenthesized t-polynomial coefficient
            depth = 1
            j = i + 1
            while j < len(tokens) and depth:
                if tokens[j] == "(":
                    depth += 1
                elif tokens[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ValueError(f"unbalanced parentheses in form text {text!r}")
            inner = "".join(tokens[i + 1 : j - 1])
            c = gf.parse_element(field, inner)
            cur_coeff = c if cur_coeff is None else field.mul(cur_coeff, c)
            cur_has_body = True
            expect_term = False
            i = j
            if i < len(tokens) and tokens[i] == "*":
                i += 1
            continue
        if tok.isdigit():
            c = int(tok) % field.p
            code = c if field.m == 1 else field.encode([c])
            cur_coeff = code if cur_coeff is None else field.mul(cur_coeff, code)
            cur_has_body = True
            expect_term = False
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
            continue
        if tok == "t":
            raise ValueError(
                f"bare t in form text {text!r}; parenthesize t-polynomial coefficients"
            )
        if tok.startswith("x"):
            var = int(tok[1:])
            e = 1
            i += 1
            if i < len(tokens) and tokens[i] == "^":
                i += 1
                if i >= len(tokens) or not tokens[i].isdigit():
                    raise ValueError(f"bad exponent in form text {text!r}")
                e = int(tokens[i])
                i += 1
            cur_exps[var] = cur_exps.get(var, 0) + e
            cur_has_body = True
            expect_term = False
            if i < len(tokens) and tokens[i] == "*":
                i += 1
            continue
        raise ValueError(f"unexpected {tok!r} in form text {text!r}")
    if expect_term:
        raise ValueError(f"dangling sign in form text {text!r}")
    flush()

    seen_max = max((max(e, default=-1) for _, e in terms), default=-1)
    if nvars is None:
        nvars = seen_max + 1
        if nvars < 1:
            raise ValueError("cannot infer variable count from a constant form")
    elif seen_max >= nvars:
        raise ValueError(f"variable x{seen_max} out of range for {nvars} variables")
    degrees = {sum(e.values()) for _, e in terms}
    if len(degrees) > 1:
        raise ValueError(f"form text is not homogeneous: degrees {sorted(degrees)}")
    degree = degrees.pop()
    config.current_caps().check_form_degree(degree)
    acc: dict = {}
    for code, e in terms:
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
    """All exponent vectors of the given total degree, lex order."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest
