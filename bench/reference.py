"""Independent answers the benchmark checks the package against.

Nothing here calls into charclass.  Monomials use the package's public
representation (a tuple of (index, exponent) pairs, ascending index, every
exponent >= 1) so they can be compared directly with MPoly2.monomials, but
every computation is written from the definitions:

* the parity probe: the coefficient of m in a*b is the parity of
  #{k in a : m - k in b};
* graded evaluation: Z2[w1, w2, ...] maps to Z2[t]/(t^(N+1)) by
  w_i -> t^i * u_i(t); the map kills every monomial of degree > N, so it is a
  ring homomorphism that commutes with truncation at degree N;
* evaluation at points of GF(2)^n, 256 points at once in the bits of an int;
* Sq1 from the Wu formula on generators and the Leibniz rule;
* a reader for the CLI's text output.
"""

from __future__ import annotations


def degree(key) -> int:
    return sum(i * e for i, e in key)


def toggle(acc: set, key) -> None:
    if key in acc:
        acc.remove(key)
    else:
        acc.add(key)


def mono_times(k1, k2):
    merged = dict(k1)
    for i, e in k2:
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items()))


def mono_quotient(m, k):
    """m / k as a monomial, or None when k does not divide m."""
    rest = dict(m)
    for i, e in k:
        left = rest.get(i, 0) - e
        if left < 0:
            return None
        if left:
            rest[i] = left
        else:
            del rest[i]
    return tuple(sorted(rest.items()))


def product_parity(m, a_keys, b_set) -> int:
    """Coefficient of m in the untruncated product a*b over Z2."""
    count = 0
    for k in a_keys:
        q = mono_quotient(m, k)
        if q is not None and q in b_set:
            count += 1
    return count & 1


# -- graded evaluation into Z2[t]/(t^(N+1)); elements are int bitmasks ------


def clmul(x: int, y: int, mask: int) -> int:
    """Carry-less product truncated by `mask` (= 2^(N+1) - 1)."""
    out = 0
    while y and x:
        if y & 1:
            out ^= x
        x = (x << 1) & mask
        y >>= 1
    return out


def evaluate_graded(keys, units: dict, top: int) -> int:
    """Image of a polynomial under w_i -> t^i * units[i] in Z2[t]/(t^(top+1)).

    A monomial of degree d lands in t^d * prod units, so only the low
    top + 1 - d bits of the unit product are needed."""
    mask = (1 << (top + 1)) - 1
    powers: dict = {}
    total = 0
    for key in keys:
        d = degree(key)
        if d > top:
            continue
        low = (1 << (top + 1 - d)) - 1
        term = 1
        for i, e in key:
            p = powers.get((i, e))
            if p is None:
                p = power_t(units[i], e, mask)
                powers[(i, e)] = p
            term = clmul(term, p & low, low)
        total ^= term << d
    return total


def evaluate_bits(keys, point: dict) -> int:
    """Values at many points of GF(2)^n at once: bit j of point[i] is w_i at
    point j, and x^e = x there, so a monomial is the AND of its variables."""
    total = 0
    everywhere = -1
    for key in keys:
        term = everywhere
        for i, _ in key:
            term &= point[i]
        total ^= term
    return total


def power_t(x: int, e: int, mask: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = clmul(out, x, mask)
        e >>= 1
        if e:
            x = clmul(x, x, mask)
    return out


def evaluate_images(keys, images: dict, top: int) -> int:
    """Image of a polynomial whose variable i maps to images[i], given as
    elements of Z2[t]/(t^(top+1)) already."""
    mask = (1 << (top + 1)) - 1
    total = 0
    cache: dict = {}
    for key in keys:
        term = 1
        for i, e in key:
            p = cache.get((i, e))
            if p is None:
                p = power_t(images[i], e, mask)
                cache[(i, e)] = p
            term = clmul(term, p, mask)
        total ^= term
    return total


# -- Sq1 ------------------------------------------------------------------


def sq1(keys) -> set:
    """Sq1 of a mod-2 polynomial: Sq1 w_j = w1 w_j + [j even] w_(j+1),
    extended as a derivation (w_j^e contributes e * w_j^(e-1) * Sq1 w_j)."""
    out: set = set()
    for key in keys:
        for j, e in key:
            if e % 2 == 0:
                continue
            cofactor = mono_quotient(key, ((j, 1),))
            toggle(out, mono_times(cofactor, ((1, 1), (j, 1))))
            if j % 2 == 0:
                toggle(out, mono_times(cofactor, ((j + 1, 1),)))
    return out


def poly_times(keys_a, keys_b) -> set:
    out: set = set()
    for k1 in keys_a:
        for k2 in keys_b:
            toggle(out, mono_times(k1, k2))
    return out


# -- reading CLI text output ---------------------------------------------


def read_poly(text: str, letter: str) -> set:
    """Monomial set of '0' or 'x1^2*x3 + x2' style text in one letter."""
    text = text.strip()
    if text == "0":
        return set()
    out: set = set()
    for term in text.split(" + "):
        toggle(out, read_mono(term, letter))
    return out


def read_mono(term: str, letter: str):
    if term == "1":
        return ()
    merged: dict = {}
    for factor in term.split("*"):
        if not factor.startswith(letter):
            raise ValueError(f"unexpected factor {factor!r}")
        body = factor[len(letter):]
        base, _, exp = body.partition("^")
        i = int(base)
        merged[i] = merged.get(i, 0) + (int(exp) if exp else 1)
    return tuple(sorted(merged.items()))


def read_ext(text: str) -> set:
    """Exterior-ring text with no w factors: a set of frozensets of v indices."""
    text = text.strip()
    if text == "0":
        return set()
    out: set = set()
    for term in text.split(" + "):
        if term == "1":
            toggle(out, frozenset())
            continue
        factors = term.split("*")
        if not all(f.startswith("v") for f in factors):
            raise ValueError(f"unexpected exterior term {term!r}")
        toggle(out, frozenset(int(f[1:]) for f in factors))
    return out


def read_signed_terms(text: str) -> list:
    """Split '-a + b - c' into [(-1, 'a'), (1, 'b'), (-1, 'c')]."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out = []
    chunk = ""
    i = 0
    depth = 0
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith((" + ", " - "), i):
            out.append((sign, chunk))
            sign = 1 if text[i + 1] == "+" else -1
            chunk = ""
            i += 3
            continue
        chunk += ch
        i += 1
    out.append((sign, chunk))
    return out
