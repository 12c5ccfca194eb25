"""Sparse homogeneous forms over finite fields.

Form keeps a map from exponent vectors to nonzero coefficient codes; every
exponent vector has the same total degree, checked at construction.  Forms
are immutable and hashable, so they can be shared freely across threads
and used as cache keys.  Binary forms dehomogenize to univariate code
lists, on which ``linalg`` does the arithmetic.

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
            return F.mul(code, int(tok) % F.p)
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
    a degree above the cap raises CapExceededError.
    """
    terms = _Parser(field, text, nvars).sum(False, "")
    if nvars is None:
        nvars = 1 + max((v for _, e, _ in terms for v in e), default=-1)
        if nvars < 1:
            raise ParseError("cannot infer variable count from a constant form", 0)
    degree = sum(terms[0][1].values())
    for _, e, at in terms:
        if sum(e.values()) != degree:
            degrees = sorted({sum(e.values()) for _, e, _ in terms})
            raise ParseError(f"form text is not homogeneous: degrees {degrees}", at)
    config.current_caps().check_form_degree(degree)
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
    """All exponent vectors of the given total degree, lex order."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest
