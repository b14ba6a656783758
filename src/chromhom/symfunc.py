"""Symmetric functions with exact rational coefficients.

Only the two bases the homology engine needs are supported: power sums and
Schur functions, in a fixed homogeneous degree.  Conversion goes through
the symmetric group character table:

    p_mu = sum_lam chi_lam(mu) s_lam
    s_lam = sum_mu chi_lam(mu) / z_mu p_mu

The weighted chromatic symmetric function is computed both as the signed
state sum over edge subsets and, as an independent oracle, by brute-force
enumeration of proper colorings in finitely many variables.
"""

from itertools import product
from typing import NamedTuple

from ._rat import QQ, rat_str
from .characters import character_table
from .graphs import VertexWeightedGraph, state_profile
from .partitions import check_partition, partition_index


def _clean(coeffs: dict) -> dict:
    return {lam: c for lam, c in coeffs.items() if c != 0}


class SymFunc(NamedTuple):
    """Homogeneous symmetric function in one basis ('p' or 's').

    `coeffs` maps index partitions to exact rationals; zero coefficients
    are never stored.  The zero function keeps its intended degree.
    """

    basis: str
    degree: int
    coeffs: tuple  # sorted tuple of (partition, coefficient) pairs

    @staticmethod
    def make(basis: str, degree: int, coeffs: dict) -> "SymFunc":
        if basis not in ("p", "s"):
            raise ValueError(f"unknown basis {basis!r}")
        coeffs = _clean(coeffs)
        for lam in coeffs:
            check_partition(lam)
            if sum(lam) != degree:
                raise ValueError(
                    f"term {lam} is not homogeneous of degree {degree}"
                )
        order = partition_index(degree)
        items = tuple(sorted(coeffs.items(), key=lambda kv: order[kv[0]]))
        return SymFunc(basis, degree, items)

    def dict(self) -> dict:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("cannot add: basis or degree mismatch")
        out = dict(self.coeffs)
        for lam, c in other.coeffs:
            out[lam] = out.get(lam, QQ(0)) + c
        return SymFunc.make(self.basis, self.degree, out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + other.scale(QQ(-1))

    def scale(self, c) -> "SymFunc":
        c = QQ(c)
        return SymFunc.make(
            self.basis, self.degree, {lam: c * v for lam, v in self.coeffs}
        )

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        """Product; defined directly in the power-sum basis only."""
        if self.basis != "p" or other.basis != "p":
            raise ValueError("direct products require the power-sum basis")
        out: dict = {}
        for lam, a in self.coeffs:
            for mu, b in other.coeffs:
                nu = tuple(sorted(lam + mu, reverse=True))
                out[nu] = out.get(nu, QQ(0)) + a * b
        return SymFunc.make("p", self.degree + other.degree, out)

    def text(self) -> str:
        """Render as e.g. ``-p[3] + p[2,1]`` or ``3/2 * s[2,1]``."""
        if self.is_zero():
            return "0"
        pieces = []
        for lam, c in self.coeffs:
            body = f"{self.basis}[{','.join(map(str, lam))}]"
            if c == 1:
                term = body
            elif c == -1:
                term = f"-{body}"
            else:
                term = f"{rat_str(c)} * {body}"
            pieces.append(term)
        out = pieces[0]
        for term in pieces[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def s_func(lam, coeff=1) -> SymFunc:
    lam = check_partition(lam)
    return SymFunc.make("s", sum(lam), {lam: QQ(coeff)})


def basis_convert(x: SymFunc, target: str) -> SymFunc:
    """Re-express x in the target basis; p->s->p round-trips exactly."""
    if target not in ("p", "s"):
        raise ValueError(f"unknown basis {target!r}")
    if x.basis == target or x.is_zero():
        return SymFunc.make(target, x.degree, dict(x.coeffs))
    table = character_table(x.degree)
    out: dict = {}
    if x.basis == "p":  # p_mu = sum_lam chi_lam(mu) s_lam
        for mu, c in x.coeffs:
            for lam in table.partitions:
                chi = table.chi(lam, mu)
                if chi:
                    out[lam] = out.get(lam, QQ(0)) + c * chi
    else:  # s_lam = sum_mu chi_lam(mu)/z_mu p_mu
        for lam, c in x.coeffs:
            for mu in table.partitions:
                chi = table.chi(lam, mu)
                if chi:
                    out[mu] = out.get(mu, QQ(0)) + c * QQ(chi, table.z[mu])
    return SymFunc.make(target, x.degree, out)


def schur_multiply(a: SymFunc, b: SymFunc) -> SymFunc:
    """Product of Schur-basis expressions via the power-sum basis.

    The Schur coefficients of the result are the induction (Littlewood-
    Richardson) multiplicities.
    """
    pa = basis_convert(a, "p")
    pb = basis_convert(b, "p")
    return basis_convert(pa * pb, "s")


def csf_state_sum(g: VertexWeightedGraph) -> SymFunc:
    """Weighted chromatic symmetric function as the signed state sum:
    sum over edge subsets F of (-1)^|F| p_{lambda(G,w,F)}."""
    out: dict = {}
    for mask in range(1 << g.m):
        lam = state_profile(g, mask).partition
        sign = -1 if mask.bit_count() % 2 else 1
        out[lam] = out.get(lam, QQ(0)) + sign
    return SymFunc.make("p", g.total_weight, out)


def csf_colorings_oracle(g: VertexWeightedGraph, k: int) -> dict:
    """Brute-force proper-coloring polynomial in k variables.

    Returns {exponent vector: integer count}; the exponent of variable c
    is the total weight of the vertices colored c.  Loops make every
    coloring improper, giving the zero polynomial.
    """
    if k < 1:
        raise ValueError("need at least one color")
    out: dict[tuple[int, ...], int] = {}
    for coloring in product(range(k), repeat=g.n):
        if any(coloring[u] == coloring[v] for u, v in g.edges):
            continue
        expo = [0] * k
        for x in range(g.n):
            expo[coloring[x]] += g.weights[x]
        key = tuple(expo)
        out[key] = out.get(key, 0) + 1
    return out


def specialize_p(x: SymFunc, k: int) -> dict:
    """Evaluate a power-sum expression at x_1..x_k (other variables 0).

    Returns {exponent vector: coefficient} with exact rational values.
    """
    if x.basis != "p":
        raise ValueError("specialization is implemented on the p basis")
    out: dict[tuple[int, ...], QQ] = {}
    for lam, c in x.coeffs:
        terms: dict[tuple[int, ...], QQ] = {(0,) * k: QQ(1)}
        for part in lam:
            new: dict[tuple[int, ...], QQ] = {}
            for expo, v in terms.items():
                for var in range(k):
                    key = tuple(
                        e + part if t == var else e for t, e in enumerate(expo)
                    )
                    new[key] = new.get(key, QQ(0)) + v
            terms = new
        for expo, v in terms.items():
            out[expo] = out.get(expo, QQ(0)) + c * v
    return {expo: v for expo, v in out.items() if v != 0}


def check_csf_oracle(g: VertexWeightedGraph, k: int) -> bool:
    """State sum specialized to k variables vs. the coloring oracle."""
    lhs = specialize_p(csf_state_sum(g), k)
    rhs = csf_colorings_oracle(g, k)
    rhs_q = {expo: QQ(c) for expo, c in rhs.items()}
    return lhs == rhs_q

