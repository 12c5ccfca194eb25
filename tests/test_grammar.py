"""The text grammar of poly against the two parsers it replaced.

The references below are the element parser that lived in gf and the form
parser that lived in poly, kept verbatim apart from their names.  On
seeded token strings over F_5, F_8 and F_9 the one grammar must return
what they return, or refuse where they refuse, except in three classes
where it decides differently on purpose, each pinned by its own example:

* a dangling ``*`` (one not followed by a factor) is refused; the
  references read ``x0*`` as x0 and ``2*-t`` as 2 - t;
* inside a coefficient, factors multiply whether written side by side or
  joined by ``*``; the element reference read ``t 2`` as t + 2 and
  ``2*3`` as 5, refused ``t*t``, and the form reference glued the tokens
  of ``(2 3)`` into 23;
* ``t^0`` with no coefficient is 1; the element reference refused it as
  an empty term.

Nested parentheses, such as ``((3))``, are refused by both.
"""

import random
import re

import pytest

from transverse import config, gf, poly
from transverse.poly import Form

F5 = gf.field_create(5)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)


# ---------------------------------------------------------------------------
# references


_REF_ELT_TOKEN = re.compile(r"\s*(\d+|t|\^|\*|\+|-)")


def ref_parse_element(field, text: str) -> int:
    """The code of an element written as an integer or a t-polynomial."""
    s = text.strip()
    if not s:
        raise ValueError("empty element text")
    if field.m == 1 and "t" in s:
        raise ValueError(f"element text {text!r} uses t, which needs an extension (m > 1)")
    pos = 0
    sign = 1
    coeffs: dict[int, int] = {}
    tokens = []
    while pos < len(s):
        mt = _REF_ELT_TOKEN.match(s, pos)
        if not mt:
            raise ValueError(f"bad element text {text!r} at offset {pos}")
        tokens.append(mt.group(1))
        pos = mt.end()
    i = 0
    expect_term = True
    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            if expect_term and tok == "-":
                sign = -sign
                i += 1
                continue
            if expect_term:
                i += 1
                continue
            sign = 1 if tok == "+" else -1
            i += 1
            expect_term = True
            continue
        # parse one term
        coef = None
        exp = 0
        if tok.isdigit():
            coef = int(tok)
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
        if i < len(tokens) and tokens[i] == "t":
            exp = 1
            i += 1
            if i < len(tokens) and tokens[i] == "^":
                i += 1
                if i >= len(tokens) or not tokens[i].isdigit():
                    raise ValueError(f"bad exponent in element text {text!r}")
                exp = int(tokens[i])
                i += 1
        if coef is None and exp == 0:
            raise ValueError(f"bad element text {text!r}")
        if coef is None:
            coef = 1
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
        sign = 1
        expect_term = False
    if expect_term:
        raise ValueError(f"dangling sign in element text {text!r}")
    # evaluate sum coef * t^exp inside the field
    t_code = field.encode([0, 1]) if field.m > 1 else 0  # no t when m == 1
    acc = 0
    for exp, coef in coeffs.items():
        c = coef % field.p
        if c == 0:
            continue
        term = field.mul(c if field.m == 1 else field.encode([c]), field.pow(t_code, exp))
        acc = field.add(acc, term)
    return acc


_REF_TOKEN = re.compile(r"\s*(\(|\)|\+|-|\*|\^|x\d+|\d+|t)")


def _ref_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REF_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad form text at offset {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def ref_parse_form(field, text: str, nvars: int | None = None) -> Form:
    """Parse the CLI polynomial grammar into a Form.

    Terms are joined by + and -; a term is an optional coefficient
    (integer, or a parenthesized t-polynomial) times a product of x<i>^<e>
    factors.  Homogeneity is enforced; nvars is inferred from the largest
    variable index when not given.  A degree above the cap raises
    CapExceededError.
    """
    tokens = _ref_tokenize(text)
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
            c = ref_parse_element(field, inner)
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


# ---------------------------------------------------------------------------
# seeded token strings


def _join(rng, pieces):
    return "".join(rng.choice(("", " ", "  ")) + p for p in pieces).strip()


def _mutate(rng, pieces, noise):
    for _ in range(rng.choice((0, 0, 1, 2))):
        k = rng.randrange(len(pieces) + 1)
        edit = rng.randrange(3)
        if edit == 0 or not pieces:
            pieces.insert(k, rng.choice(noise))
        elif edit == 1:
            del pieces[min(k, len(pieces) - 1)]
        else:
            pieces[min(k, len(pieces) - 1)] = rng.choice(noise)
    return pieces


_NOISE = ("*", "^", "(", ")", "+", "-", "t", "x0", "x1", "2", "y", " ")
_SIGNS = ((), ("+",), ("-",), ("-", "-"), ("+", "-"))
_ELEMENT_ATOMS = ("0", "1", "2", "3", "4", "7", "12", "t", "t^2", "t ^ 0", "t^5")
_COEFFS = ("2", "3", "4", "(t)", "(t+1)", "(2*t^2 - 1)", "(t t)", "(2 3)",
           "(t^2 2)", "((t))", "(t*)", "(-t)")


def _signs(rng, k):
    """Signs before term k: optional before the first, at least one later."""
    return list(rng.choice(_SIGNS)) or (["+"] if k else [])


def element_text(rng):
    pieces = []
    for k in range(rng.randint(1, 3)):
        pieces += _signs(rng, k)
        shape = rng.random()
        if shape < 0.5:
            factors = [rng.choice(_ELEMENT_ATOMS)]
        elif shape < 0.8:  # the one product the element reference knew
            factors = [rng.choice(_ELEMENT_ATOMS[:7]), rng.choice(_ELEMENT_ATOMS[7:])]
        else:
            factors = rng.choices(_ELEMENT_ATOMS, k=rng.randint(2, 3))
        for j, f in enumerate(factors):
            if j and rng.random() < 0.6:
                pieces.append("*")
            pieces.append(f)
    return _join(rng, _mutate(rng, pieces, _NOISE))


def form_text(rng):
    degree = rng.randint(1, 3)
    pieces = []
    for k in range(rng.randint(1, 3)):
        pieces += _signs(rng, k)
        factors = [f"x{rng.randrange(3)}" for _ in range(degree)]
        if rng.random() < 0.6:
            factors.insert(rng.randrange(len(factors) + 1), rng.choice(_COEFFS))
        for j, f in enumerate(factors):
            if j and rng.random() < 0.6:
                pieces.append("*")
            pieces.append(f)
    return _join(rng, _mutate(rng, pieces, _NOISE))


# ---------------------------------------------------------------------------
# the three classes where the grammar decides differently


_WORDS = re.compile(r"x\d+|\d+|\S")
_FACTOR = re.compile(r"\d|t|x\d|\(")


def dangling_star(text):
    words = _WORDS.findall(text) + [""]
    return any(
        w == "*" and not _FACTOR.match(nxt) for w, nxt in zip(words, words[1:])
    )


def coefficient_terms(text, whole_is_coefficient):
    """The terms, as word lists, of every coefficient in the text: the
    whole text for an element, each parenthesized part of a form."""
    regions, depth = [[]] if whole_is_coefficient else [], 0
    for w in _WORDS.findall(text):
        if w == "(":
            depth += 1
            regions.append([])
        elif w == ")":
            depth -= 1
        elif depth > 0 or whole_is_coefficient:
            regions[-1].append(w)
    for region in regions:
        term = []
        for w in region + ["+"]:
            if w not in ("+", "-"):
                term.append(w)
            elif term:
                yield term
                term = []


def product_in_term(term):
    """Several factors, other than the one product the element reference
    multiplied: INT ['*'] t ['^' INT]."""
    starts = [
        w for k, w in enumerate(term)
        if _FACTOR.match(w) and not (w.isdigit() and k and term[k - 1] == "^")
    ]
    bare = [w for w in term if w != "*"]
    old_shape = (
        len(starts) == 2 and bare[0].isdigit() and bare[1] == "t"
        and term.count("*") <= 1
    )
    return len(starts) > 1 and not old_shape


def bare_t_to_the_zero(term):
    """t^0 with no coefficient, which the element reference refused as an
    empty term; the grammar reads it as 1."""
    return term[:2] == ["t", "^"] and term[2:] in (["0"], ["00"])


def decided_differently(text, whole_is_coefficient):
    return any(
        product_in_term(term) or bare_t_to_the_zero(term)
        for term in coefficient_terms(text, whole_is_coefficient)
    )


STRINGS = 3000


def outcome(parse, *args):
    try:
        return parse(*args)
    except (ValueError, config.CapExceededError):
        return "refused"


@pytest.mark.parametrize("field", [F5, F8, F9], ids=str)
def test_element_grammar_matches_the_reference(field):
    rng = random.Random(field.order)
    counts = {"accepted": 0, "refused": 0, "dangling": 0, "different": 0}
    for _ in range(STRINGS):
        text = element_text(rng)
        new = outcome(poly.parse_element, field, text)
        if dangling_star(text):
            assert new == "refused", text
            counts["dangling"] += 1
        elif decided_differently(text, True):
            counts["different"] += 1
        else:
            assert new == outcome(ref_parse_element, field, text), text
            counts["refused" if new == "refused" else "accepted"] += 1
    assert min(counts.values()) > STRINGS // 20, counts  # each outcome is seen


@pytest.mark.parametrize("field", [F5, F8, F9], ids=str)
@pytest.mark.parametrize("nvars", [None, 3])
def test_form_grammar_matches_the_reference(field, nvars):
    rng = random.Random(field.order * 10 + (nvars or 0))
    counts = {"accepted": 0, "refused": 0, "dangling": 0, "different": 0}
    for _ in range(STRINGS):
        text = form_text(rng)
        new = outcome(poly.parse_form, field, text, nvars)
        if dangling_star(text):
            assert new == "refused", text
            counts["dangling"] += 1
        elif decided_differently(text, False):
            counts["different"] += 1
        else:
            assert new == outcome(ref_parse_form, field, text, nvars), text
            counts["refused" if new == "refused" else "accepted"] += 1
    assert min(counts.values()) > STRINGS // 20, counts


class TestDecisions:
    def test_dangling_star_is_refused(self):
        assert ref_parse_form(F5, "x0*") == poly.parse_form(F5, "x0")
        for text in ("x0*", "x0* + x1", "2*x0*"):
            with pytest.raises(poly.ParseError):
                poly.parse_form(F5, text)
        t = F9.encode([0, 1])
        assert ref_parse_element(F9, "2*-t") == F9.sub(2, t)
        with pytest.raises(poly.ParseError) as err:
            poly.parse_element(F9, "2*-t")
        assert err.value.offset == 2

    def test_nested_parentheses_are_refused(self):
        for parse in (ref_parse_form, poly.parse_form):
            with pytest.raises(ValueError):
                parse(F5, "((3))*x0^2")
        with pytest.raises(poly.ParseError) as err:
            poly.parse_form(F9, "x0 + ((t))*x1")
        assert err.value.offset == 6
        with pytest.raises(poly.ParseError):
            poly.parse_element(F9, "(t)")

    def test_factors_multiply_inside_a_coefficient(self):
        t = F9.encode([0, 1])
        assert ref_parse_element(F9, "t 2") == F9.add(t, 2)
        assert poly.parse_element(F9, "t 2") == F9.mul(t, 2)
        assert poly.parse_element(F9, "t*t") == F9.mul(t, t)
        assert ref_parse_element(F5, "2*3") == 0
        assert poly.parse_element(F5, "2*3") == 1
        assert ref_parse_form(F5, "(2 3)*x0") == poly.parse_form(F5, "3*x0")
        assert poly.parse_form(F5, "(2 3)*x0") == poly.parse_form(F5, "x0")
        # juxtaposition already multiplied outside parentheses
        assert poly.parse_form(F5, "x0 2") == ref_parse_form(F5, "x0 2")


    def test_bare_t_to_the_zero_is_one(self):
        with pytest.raises(ValueError):
            ref_parse_element(F9, "t^0")
        assert poly.parse_element(F9, "t^0") == 1
        assert poly.parse_form(F9, "(t^0)*x0") == poly.parse_form(F9, "x0")


class TestErrorOffsets:
    @pytest.mark.parametrize("text, offset, reason", [
        ("x0^2 + (x1)*x2", 8, "inside a coefficient"),
        ("x0^2 + y", 7, "unexpected character"),
        ("x0^2 + t*x1", 7, "parenthesize"),
        ("x0^2 + x1", 7, "not homogeneous"),
        ("x0^2 + x1^", 10, "bad exponent"),
        ("x0^2 + (t", 9, "unexpected end of text"),
        ("x0^2 )", 5, "unexpected ')'"),
        ("x0^2 + x3^2", 7, "out of range"),
    ])
    def test_offset_points_at_the_offending_token(self, text, offset, reason):
        with pytest.raises(poly.ParseError) as err:
            poly.parse_form(F9, text, nvars=3)
        assert err.value.offset == offset
        assert reason in err.value.reason
        assert str(err.value) == f"{err.value.reason} at offset {offset}"
