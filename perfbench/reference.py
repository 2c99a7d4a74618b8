"""Reference arithmetic the benchmark checks the program's answers with.

It shares no code with hullcodes: a field is rebuilt from its public
description (p, m, modulus) using the documented element encoding
(coefficients c_0..c_{m-1}, encoded as sum c_i p^i), and everything
else is table lookups plus plain Gaussian elimination.
"""

from __future__ import annotations

import itertools

import numpy as np


class RefField:
    """GF(p^m) as q x q addition and multiplication tables."""

    def __init__(self, p: int, m: int = 1, modulus=(0, 1)):
        self.p, self.m, self.q = p, m, p**m
        q = self.q
        digits = [self._digits(x) for x in range(q)]
        self.add = [[self._enc([(x + y) % p for x, y in zip(da, db)]) for db in digits] for da in digits]
        self.mul = [[self._enc(self._polymulmod(da, db, modulus)) for db in digits] for da in digits]
        self.neg = [row.index(0) for row in self.add]
        self.inv = [None] + [self.mul[x].index(1) for x in range(1, q)]
        self.np_add = np.array(self.add, dtype=np.int64)
        self.np_mul = np.array(self.mul, dtype=np.int64)

    @classmethod
    def from_dict(cls, d: dict) -> "RefField":
        return cls(int(d["p"]), int(d["m"]), tuple(d["modulus"]))

    def _digits(self, x):
        out = []
        for _ in range(self.m):
            x, c = divmod(x, self.p)
            out.append(c)
        return out

    def _enc(self, cs):
        return sum(c * self.p**i for i, c in enumerate(cs))

    def _polymulmod(self, a, b, modulus):
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * m - 2, m - 1, -1):
            lead = prod[top]
            if lead:
                for j in range(m + 1):
                    prod[top - m + j] = (prod[top - m + j] - lead * modulus[j]) % p
        return prod[:m]

    def pow(self, x: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul[out][x]
        return out

    def dot(self, u, w) -> int:
        acc = 0
        for x, y in zip(u, w):
            acc = self.add[acc][self.mul[x][y]]
        return acc

    def poly_eval(self, fx, x: int) -> int:
        acc = 0
        for c in reversed(fx):
            acc = self.add[self.mul[acc][x]][c]
        return acc


def echelon(F: RefField, rows):
    """(reduced rows, pivot columns) by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        s = F.inv[rows[r][c]]
        rows[r] = [F.mul[s][x] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                t = F.neg[rows[i][c]]
                rows[i] = [F.add[x][F.mul[t][y]] for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(F: RefField, rows) -> int:
    return len(echelon(F, rows)[1])


def nullspace(F: RefField, rows, ncols: int):
    """Basis of {x : rows . x = 0}."""
    red, pivots = echelon(F, rows) if rows else ([], [])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[free] = 1
        for row, pc in zip(red, pivots):
            x[pc] = F.neg[row[free]]
        basis.append(x)
    return basis


def gram(F: RefField, G):
    return [[F.dot(r, s) for s in G] for r in G]


def grs_generator(F: RefField, a, v, k: int, extended: bool):
    rows = []
    for r in range(k):
        row = [F.mul[vi][F.pow(ai, r)] for ai, vi in zip(a, v)]
        if extended:
            row.append(1 if r == k - 1 else 0)
        rows.append(row)
    return rows


def grs_encode(F: RefField, a, v, k: int, extended: bool, fx):
    word = [F.mul[vi][F.poly_eval(fx, ai)] for ai, vi in zip(a, v)]
    if extended:
        word.append(fx[k - 1] if len(fx) >= k else 0)
    return word


def combine(F: RefField, coeffs, rows):
    """sum_i coeffs[i] * rows[i]."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = [F.add[x][F.mul[c][y]] for x, y in zip(out, row)]
    return out


def _all_words(F: RefField, G, skip_zero: bool):
    """Every codeword m.G over the messages m in GF(q)^len(G), as an array."""
    msgs = np.array(list(itertools.product(range(F.q), repeat=len(G)))[skip_zero:], dtype=np.int64)
    words = np.zeros((len(msgs), len(G[0])), dtype=np.int64)
    for r, row in enumerate(np.array(G, dtype=np.int64)):
        words = F.np_add[words, F.np_mul[msgs[:, r][:, None], row[None, :]]]
    return words


def span(F: RefField, rows, n: int) -> set:
    """Every vector of length n in the row space, by enumerating all combinations."""
    if not rows:
        return {(0,) * n}
    return set(map(tuple, _all_words(F, rows, skip_zero=False).tolist()))


def min_distance(F: RefField, G) -> int:
    """Minimum nonzero weight over all q^k - 1 nonzero messages."""
    return int(np.count_nonzero(_all_words(F, G, skip_zero=True), axis=1).min())
