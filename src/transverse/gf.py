"""Finite fields, their towers, Frobenius maps and compatible embeddings.

A field F_{p^m} is represented in a single level as F_p[t]/(g(t)) with g
monic irreducible of degree m over the prime field, never as a quotient of
a quotient.  Elements are integer codes: the base-p digit string of the
coefficient vector, little endian, so code(sum c_i t^i) = sum c_i p^i.
Constants therefore keep the same code in every field of characteristic p.
``Field.decode`` (by division, never a table) is the one map from codes to
digits and ``embed_code`` the one map between fields; outside this module
only ``linalg``'s numpy echelon reads codes as residues mod p.

The modulus is the canonical one, the first monic irreducible of its
degree in the code order above, so two runs always agree on the
representation.  Prime fields compute with ``%``.  Extension
fields of order up to 2^16 build tables lazily and cache them on the field
object: exp/log tables for multiplication and, in odd characteristic, a
Zech-logarithm table zech[n] = log(1 + g^n) for addition, so that
a + b = g^la * (1 + g^(lb - la)) costs four lookups (Huber, "Some comments
on Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990); characteristic 2
adds by XOR.  The powers of g are read off the F_p-linear map of
multiplication by g, tabulated once by a matrix product over all codes.
Beyond 2^16 there are no tables and arithmetic works on
digit polynomials.  ``Field.add_scaled`` is the row update x + c*y that
Gaussian elimination and polynomial arithmetic run on, looped once in the
log domain.

``Field.arrays()`` is the field's array view: elementwise ``add`` and
``mul`` on numpy arrays of codes, for kernels that run one computation
over many inputs at once.  It mirrors the scalar representations: int64
residues mod p for primes below 2^31 (a product of two residues fits);
log/exp gathers for table-backed extensions, with log 0 a sentinel that
reads back 0, adding by XOR in characteristic 2 and otherwise by the Zech
table, spread so that zero operands need no mask either; and object arrays
through the field's own ``add`` and ``mul`` for everything else, primes
from 2^31 up to the field-size cap and extensions past 2^16.  The view is
built the first time it is asked for, never with the tables.

Embeddings between fields of the same characteristic are computed by
finding a root of the source modulus in the target, chosen compatibly with
every embedding already constructed, so that going up a tower in two steps
agrees with going up in one.  The registry of those roots is process wide
and lock protected; lookups after the first are plain dictionary reads,
and each embedded code is evaluated from its digits at the root, uncached.

This module only prints elements (``format_element``, as polynomials in t);
the one text grammar, for elements and forms alike, is parsed in ``poly``.
"""

from __future__ import annotations

import threading

import numpy as np

from . import config, linalg

_TABLE_MAX = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the field-size cap."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_irreducible_mod_p(p: int, g) -> bool:
    m = len(g) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    Fp = Field(p, 1, (0, 1))
    # no factor of degree <= m/2 forces irreducibility for degree m
    for i in range(1, m // 2 + 1):
        h = linalg.u_powmod(Fp, [0, 1], p**i, g)
        d = linalg.u_gcd(Fp, g, linalg.u_sub(Fp, h, [0, 1]))
        if len(d) - 1 > 0:
            return False
    return True


def _canonical_modulus(p: int, m: int):
    if m == 1:
        return (0, 1)
    for v in range(p**m):
        digits = []
        x = v
        for _ in range(m):
            digits.append(x % p)
            x //= p
        g = digits + [1]
        if _is_irreducible_mod_p(p, g):
            return tuple(g)
    raise RuntimeError("no irreducible modulus found")  # unreachable


class Field:
    """F_{p^m} with integer-code element arithmetic.

    Not instantiated directly; use field_create / extension_field so that
    identical parameters share one object and its cached tables.
    """

    def __init__(self, p: int, m: int, modulus):
        self.p = p
        self.m = m
        self.modulus = tuple(int(c) % p for c in modulus)
        self.order = p**m
        self.key = (p, m)  # every field is built on its canonical modulus
        self._half = (self.order - 1) // 2  # log of -1 in odd characteristic
        self._exp = None
        self._log = None
        self._zech = None
        self._redrows = None
        self._arrays = None
        self._lock = threading.Lock()

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- codes and digits --------------------------------------------------

    def decode(self, code: int):
        """Digit tuple (c_0, ..., c_{m-1}) of a code, by repeated division:
        the one map from codes to digits."""
        out = []
        x = code
        for _ in range(self.m):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, digits) -> int:
        acc = 0
        for c in reversed(list(digits)):
            acc = acc * self.p + (c % self.p)
        return acc

    def elements(self):
        return range(self.order)

    # -- table construction ------------------------------------------------

    def _reduction_rows(self):
        if self._redrows is None:
            p, m = self.p, self.m
            g = self.modulus
            rows = []
            cur = [(-g[i]) % p for i in range(m)]  # t^m mod g
            rows.append(tuple(cur))
            for _ in range(m - 2):
                cur = [0] + cur
                top = cur.pop()
                if top:
                    cur = [(cur[i] + top * rows[0][i]) % p for i in range(m)]
                rows.append(tuple(cur))
            self._redrows = rows
        return self._redrows

    def _mul_general(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, m = self.p, self.m
        da, db = self.decode(a), self.decode(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        if m > 1:
            rows = self._reduction_rows()
            for i in range(2 * m - 2, m - 1, -1):
                c = prod[i]
                if c:
                    row = rows[i - m]
                    for j in range(m):
                        prod[j] = (prod[j] + c * row[j]) % p
        return self.encode(prod[:m])

    def _pow_general(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        e %= self.order - 1
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_general(result, base)
            e >>= 1
            if e:
                base = self._mul_general(base, base)
        return result

    def _find_generator(self) -> int:
        n = self.order - 1
        factors = []
        x = n
        d = 2
        while d * d <= x:
            if x % d == 0:
                factors.append(d)
                while x % d == 0:
                    x //= d
            d += 1
        if x > 1:
            factors.append(x)
        for cand in range(1, self.order):
            if all(self._pow_general(cand, n // f) != 1 for f in factors):
                return cand
        raise RuntimeError("no multiplicative generator found")  # unreachable

    def _ensure_tables(self):
        if self._exp is not None or self.order > _TABLE_MAX:
            return self._exp is not None
        with self._lock:
            if self._exp is not None:
                return True
            q, p, m = self.order, self.p, self.m
            g = self._find_generator()
            # multiplication by g is F_p-linear; its matrix has the digits
            # of g * t^j as rows, so one product gives g * c for every code c
            images = [self.decode(self._mul_general(g, p**j)) for j in range(m)]
            weights = p ** np.arange(m, dtype=np.int32)
            digits = np.arange(q, dtype=np.int32)[:, None] // weights % p
            mulg = (digits @ np.array(images, dtype=np.int32) % p @ weights).tolist()
            del digits
            exp = [0] * (2 * (q - 1))
            log = [0] * q
            acc = 1
            for i in range(q - 1):
                exp[i] = acc
                exp[i + q - 1] = acc
                log[acc] = i
                acc = mulg[acc]
            del mulg
            if p != 2:
                # adding 1 changes only the constant digit of a code
                zech = [0] * (q - 1)
                for n in range(q - 1):
                    c = exp[n]
                    c1 = c + 1 if c % p != p - 1 else c + 1 - p
                    zech[n] = log[c1] if c1 else -1
                # stored twice over, like exp, so that any difference of two
                # logs in (-2(q-1), 2(q-1)) indexes it directly
                self._zech = zech + zech
            self._log = log
            # callers read the tables without the lock once _exp is set, so
            # it is published last
            self._exp = exp
        return True

    # -- arithmetic on codes ------------------------------------------------

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign*b digit by digit: the addition of fields without tables."""
        p = self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode([(x + sign * y) % p for x, y in zip(da, db)])

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._exp is None and not self._ensure_tables():
            return self._digitwise(a, b, 1)
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        if self._exp is None and not self._ensure_tables():
            return self._digitwise(0, a, -1)
        return self._exp[self._log[a] + self._half]

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def add_scaled(self, xs, c: int, ys) -> list:
        """The row xs + c*ys, entrywise, as a new list of len(xs) == len(ys)."""
        if c == 0:
            return list(xs)
        if self.m == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        if self._exp is None and not self._ensure_tables():
            add, mul = self.add, self.mul
            return [add(x, mul(c, y)) if y else x for x, y in zip(xs, ys)]
        exp, log = self._exp, self._log
        lc = log[c]
        if self.p == 2:
            return [exp[lc + log[y]] ^ x if y else x for x, y in zip(xs, ys)]
        zech = self._zech
        out = []
        for x, y in zip(xs, ys):
            if y:
                ly = lc + log[y]  # log of c*y, below 2(q-1)
                if x:
                    lx = log[x]
                    z = zech[ly - lx]
                    x = exp[lx + z] if z >= 0 else 0
                else:
                    x = exp[ly]
            out.append(x)
        return out

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None or self._ensure_tables():
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_general(a, b)

    def mul_int(self, a: int, k: int) -> int:
        """a times the integer k, i.e. k-fold addition."""
        k %= self.p
        if k == 0 or a == 0:
            return 0
        return self.mul(a, k)  # the constant k has code k in every field

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None or self._ensure_tables():
            return self._exp[self.order - 1 - self._log[a]]
        return self._pow_general(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m == 1:
            return pow(a, e, self.p) if (a or e == 0) else 0
        if a == 0:
            return 0 if e else 1
        if self._exp is not None or self._ensure_tables():
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        return self._pow_general(a, e)

    def arrays(self) -> "ArrayView":
        """The field's array view, built on first use."""
        if self._arrays is None:
            self._arrays = ArrayView(self)
        return self._arrays

    def frob(self, a: int) -> int:
        """a^p."""
        return a if self.m == 1 else self.pow(a, self.p)

    def frob_power(self, a: int, s: int) -> int:
        """a^(p^s)."""
        s %= self.m
        for _ in range(s):
            a = self.frob(a)
        return a

    # -- text ----------------------------------------------------------------

    def format(self, code: int) -> str:
        return format_element(self, code)


# ---------------------------------------------------------------------------
# array view: elementwise arithmetic on numpy arrays of codes

# below this, a product of two residues fits in int64
_INT64_PRIME_LIMIT = 1 << 31


class ArrayView:
    """Elementwise ``add`` and ``mul`` on numpy arrays of codes of one
    field, broadcasting like numpy; either operand may be a Python int.

    ``array`` turns (nested lists of) codes into an array of the view's
    representation, and ``tolist`` on a result gives Python int codes.
    """

    def __init__(self, F: Field):
        p, q = F.p, F.order
        if F.m == 1 and p < _INT64_PRIME_LIMIT:
            self.dtype = np.int64
            self.add = lambda a, b: (a + b) % p
            self.mul = lambda a, b: a * b % p
        elif F._ensure_tables():
            self.dtype = np.int64
            # log[0] is a sentinel past every sum of two logs of nonzero
            # codes, and exp reads 0 from there on, so a product with a zero
            # factor needs no mask
            n = q - 1
            zero = 2 * n
            log = np.array(F._log, dtype=np.int64)
            log[0] = zero
            exp = np.zeros(2 * zero + 1, dtype=np.int64)
            exp[:zero] = F._exp
            self.mul = lambda a, b: exp[log[a] + log[b]]
            if p == 2:
                self.add = np.bitwise_xor
            else:
                # the scalar rule a + b = g^la * (1 + g^(lb - la)), with the
                # Zech table spread over every difference in [-zero, zero]
                # (negative ones index from the end): a zero b reads 0 and
                # keeps la, a zero a reads lb - la and lands on lb, and a
                # pair of zeros or a sum that vanishes (Zech -1, stored as
                # zero) lands in exp's zero region
                zech = np.zeros(2 * zero + 1, dtype=np.int64)
                table = np.array(F._zech[:n], dtype=np.int64)
                table[table < 0] = zero
                zech[:n] = table  # differences 0 .. n-1
                zech[-n + 1 :] = table[1:]  # -(n-1) .. -1
                zech[-zero:-n] = np.arange(-zero, -n)  # a = 0

                def add(a, b):
                    la = log[a]
                    return exp[la + zech[log[b] - la]]

                self.add = add
        else:
            self.dtype = object
            self.add = np.frompyfunc(F.add, 2, 1)
            self.mul = np.frompyfunc(F.mul, 2, 1)

    def array(self, codes) -> np.ndarray:
        return np.array(codes, dtype=self.dtype)


# ---------------------------------------------------------------------------
# construction and registry

_FIELDS: dict = {}
_REG_LOCK = threading.RLock()


def field_create(p: int, m: int = 1) -> Field:
    """The field F_{p^m}, with its canonical modulus.  A registered field
    skips the primality test, not the caps check."""
    key = (p, m)
    # the type checks come first: 7.0 hashes like 7
    known = isinstance(p, int) and isinstance(m, int) and key in _FIELDS
    if not known and (not isinstance(p, int) or not is_prime(p)):
        raise ValueError(f"{p} is not prime")
    if not isinstance(m, int) or m < 1:
        raise ValueError("extension degree must be a positive integer")
    config.current_caps().check_field(p, m)
    with _REG_LOCK:
        if key not in _FIELDS:
            _FIELDS[key] = Field(p, m, _canonical_modulus(p, m))
        return _FIELDS[key]


def extension_field(base: Field, k: int) -> Field:
    """Canonical degree-k extension of ``base`` (single level over the prime)."""
    if k < 1:
        raise ValueError("extension degree must be positive")
    return field_create(base.p, base.m * k)


def extension_with(base: Field, at_least: int) -> Field:
    """The smallest extension of ``base`` with at least ``at_least`` elements."""
    k = 1
    while base.order**k < at_least:
        k += 1
    return extension_field(base, k)


# ---------------------------------------------------------------------------
# embeddings

_EMBED: dict = {}


def _hom_eval_digits(src: Field, tgt: Field, rho: int, code: int) -> int:
    """Image of a source code under t |-> rho, evaluated in the target."""
    digits = src.decode(code)
    acc = 0
    for c in reversed(digits):
        acc = tgt.add(tgt.mul(acc, rho), c)
    return acc


def _generator_image(src: Field, tgt: Field) -> int:
    key = (src.key, tgt.key)
    if key in _EMBED:
        return _EMBED[key]
    if src.p != tgt.p:
        raise ValueError("fields of different characteristic")
    if tgt.m % src.m:
        raise ValueError(f"degree {src.m} does not divide {tgt.m}; no embedding exists")
    with _REG_LOCK:
        if key in _EMBED:
            return _EMBED[key]
        # prefer composing through an already linked intermediate
        mids = sorted(
            b for (a, b) in _EMBED if a == src.key and (b, tgt.key) in _EMBED
        )
        if mids:
            routes = {
                _hom_eval_digits(
                    _FIELDS[b], tgt, _EMBED[(b, tgt.key)], _EMBED[(src.key, b)]
                )
                for b in mids
            }
            if len(routes) > 1:
                raise RuntimeError("embedding lattice constraints are inconsistent")
            rho = routes.pop()
            _EMBED[key] = rho
            return rho
        coeffs = list(src.modulus)  # constants share codes in every char-p field
        cands = linalg.u_distinct_roots(tgt, coeffs, seed=hash(key))
        for (akey, bkey), img in list(_EMBED.items()):
            if bkey == src.key and (akey, tgt.key) in _EMBED:
                # D -> src -> tgt must agree with the stored D -> tgt
                want = _EMBED[(akey, tgt.key)]
                cands = [r for r in cands if _hom_eval_digits(src, tgt, r, img) == want]
            if akey == src.key and (tgt.key, bkey) in _EMBED:
                # src -> tgt -> G must agree with the stored src -> G
                G = _FIELDS[bkey]
                rho_up = _EMBED[(tgt.key, bkey)]
                cands = [r for r in cands if _hom_eval_digits(tgt, G, rho_up, r) == img]
        if not cands:
            raise RuntimeError("embedding lattice constraints are inconsistent")
        _EMBED[key] = cands[0]
        return cands[0]


def embed_code(src: Field, tgt: Field, code: int) -> int:
    """Image of a source element code in the target field: the one map of
    codes between fields."""
    if src.key == tgt.key or src.m == 1:
        return code  # constants keep their codes
    return _hom_eval_digits(src, tgt, _generator_image(src, tgt), code)


# ---------------------------------------------------------------------------
# element text: t-polynomials such as 2*t^2+t+1, parsed by poly.parse_element


def format_element(field: Field, code: int) -> str:
    if field.m == 1:
        return str(code)
    digits = field.decode(code)
    parts = []
    for e in range(field.m - 1, -1, -1):
        c = digits[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{e}" if c == 1 else f"{c}*t^{e}")
    return "+".join(parts) if parts else "0"
