"""The Tate/slice filtration on homotopy of the sphere, in coordinates.

For integers n, p, q and a supported field F the filtration level is the
subgroup K^MW_{q-p}(F) * I(F)^N with N = max(0, min(n-p, n-q)); for n <= p it
is the whole group.  Every level lives in the degree-(q-p) coordinate group
``kmw_ambient(F, q-p)``; only the CLI report shows a positive-degree level as
the ideal I^{N+m} in GW coordinates.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from mwslice.abelian import Ambient, Record, SubgroupDescription, full_subgroup
from mwslice.fields import FieldDescriptor
from mwslice.milnor_witt import eta_coords, kmw_ambient


# Largest supported |n|, |p|, |q| of a query, Moore level n and convergence
# cutoff.  Over R the level I^N holds 2^(N-1) exactly and the convergence
# check builds cutoff + 1 levels per chain, so larger indices would run and
# print without useful bound.
MAX_INDEX = 1000

_set = object.__setattr__


def check_index(name: str, value: int) -> None:
    if abs(value) > MAX_INDEX:
        raise ValueError(f"{name} = {value} exceeds the supported bound {MAX_INDEX}")


def shift_index(a: int, b: int) -> int:
    """N(a, b) = max(0, min(a, b))."""
    return max(0, min(a, b))


class FiltrationQuery(Record):
    __slots__ = _fields = ("n", "p", "q", "field")

    def __init__(self, n: int, p: int, q: int, field: FieldDescriptor) -> None:
        for name, value in (("n", n), ("p", p), ("q", q)):
            check_index(name, value)
        _set(self, "n", n)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "field", field)

    @property
    def degree(self) -> int:
        return self.q - self.p

    @property
    def N(self) -> int:
        return shift_index(self.n - self.p, self.n - self.q)

    def to_json(self) -> dict:
        return {"n": self.n, "p": self.p, "q": self.q, "field": str(self.field)}


@lru_cache(maxsize=None)
def kmw_times_In(m: int, n: int, field: FieldDescriptor) -> SubgroupDescription:
    """The subgroup K^MW_m(F) * I(F)^n in the degree-m coordinate group.

    n = 0 gives the full group; for n >= 1 the field's ``level_generators``
    span it: I^n in Witt coordinates when m < 0 and in GW coordinates when
    m = 0, and K^MW_m * I^n in the degree-m coordinates when m > 0.

    A level depends on (m, n, field) only, not on the point (n, p, q) where
    it is asked for, so each is built once and the immutable result shared.
    ``MAX_INDEX`` bounds the keys per field: a query's indices give
    |m| <= 2 * MAX_INDEX and n <= 2 * MAX_INDEX + 1 (``graded_piece`` asks
    one step past its query).  A negative n raises on every call, since
    exceptions are not cached.
    """
    if n < 0:
        raise ValueError("ideal powers are indexed by naturals")
    if n == 0:
        return full_subgroup(kmw_ambient(field, m))
    return SubgroupDescription(kmw_ambient(field, m), field.level_generators(m, n))


def tate_filtration(query: FiltrationQuery) -> SubgroupDescription:
    """F^n_Tate of pi_{p,p} of the q-fold twist, evaluated at the field.

    The level is K^MW_{q-p} * I^N with N from shift_index; for n <= p, N = 0
    and the level is the whole group (the stabilization regime).
    """
    return kmw_times_In(query.degree, query.N, query.field)


def filtration_in_degree_coords(query: FiltrationQuery) -> SubgroupDescription:
    """The same level as tate_filtration, kept as a separately traced name."""
    return tate_filtration(query)


def reported_level(query: FiltrationQuery) -> SubgroupDescription:
    """The level as the CLI shows it: I^{N+m} in GW coordinates when m, N >= 1."""
    m, N = query.degree, query.N
    if m >= 1 and N >= 1:
        return kmw_times_In(0, N + m, query.field)
    return tate_filtration(query)


def graded_piece(query: FiltrationQuery) -> Ambient:
    """F^n / F^{n+1} computed inside the degree coordinates, as a group of its own."""
    top = tate_filtration(query)
    n = query.n + 1  # may pass MAX_INDEX by one, so no FiltrationQuery is built
    nxt = kmw_times_In(query.degree, shift_index(n - query.p, n - query.q), query.field)
    return top.quotient_shape(nxt)


def eta_image_subgroup(query: FiltrationQuery) -> SubgroupDescription:
    """Image of x eta^M : K^MW_{q-p+M} -> K^MW_{q-p}, M = N or p - q + N.

    This is the independent computation of the filtration subgroup used by the
    consistency tests: the main theorem's proof identifies the level with this
    eta-power image (for n > p).
    """
    m, N = query.degree, query.N
    return eta_power_image(m, N if m >= 0 else -m + N, query.field)


@lru_cache(maxsize=None)
def eta_power_image(m: int, M: int, field: FieldDescriptor) -> SubgroupDescription:
    """The image of eta^M : K^MW_{m+M} -> K^MW_m, one shared object per (m, M, field).

    It pushes the unit vectors of the degree-(m+M) coordinates through
    ``eta_coords`` and never asks for a level, so it stays independent of
    ``kmw_times_In``.  ``MAX_INDEX`` bounds the keys per field: a query gives
    |m| <= 2 * MAX_INDEX and 0 <= M <= 2 * MAX_INDEX (M = N when m >= 0, and
    M = p - q + N <= n - q otherwise).
    """
    gens = []
    for row in full_subgroup(kmw_ambient(field, m + M)).basis:  # the unit vectors
        for d in range(m + M, m, -1):
            row = eta_coords(field, d, row)
        gens.append(row)
    return SubgroupDescription(kmw_ambient(field, m), tuple(gens))


# -- convergence -------------------------------------------------------------------


def convergence_check(field: FieldDescriptor, cutoff: int) -> tuple[bool, tuple[str, ...]]:
    """Verify that the filtration of K^MW_{q-p} is separated up to the cutoff.

    Checks monotonicity of the chain on a small (p, q) grid and certifies the
    vanishing of the intersection structurally with ``certify_level`` at
    n = cutoff; where some I^k vanishes, I^k must be zero.  Returns whether
    the filtration is separated and the details: each failure found, or a
    line saying that the intersection is zero.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    check_index("cutoff", cutoff)
    vanishing = field.vanishing_power
    details = []
    for p in range(0, 3):
        for q in range(0, 3):
            chain = [
                tate_filtration(FiltrationQuery(n, p, q, field))
                for n in range(0, cutoff + 1)
            ]
            for a, b in zip(chain, chain[1:]):
                if not b <= a:
                    details.append(f"monotonicity fails at (p,q)=({p},{q})")
            details += certify_level(field, cutoff, p, q, chain[-1])
    if vanishing is not None and not kmw_times_In(0, vanishing, field).is_zero:
        details.append(f"I^{vanishing} is not zero")
    separated = not details
    if separated:
        details.append("intersection of the chain is zero at the cutoff")
    return separated, tuple(details)


def certify_level(field: FieldDescriptor, cutoff: int, p: int, q: int,
                  level: SubgroupDescription) -> tuple[str, ...]:
    """The failures, none or one, of the field's certificate on the level at
    n = cutoff of the chain at (p, q).  Where some I^k vanishes (I^2 over F_q,
    I over C) the tail must be zero.  Over R the level must lie in 2^k L, L the
    ambient lattice; the lattices 2^k L meet in zero, so the chain is separated.
    """
    # The level has N = cutoff - max(p, q).  The certificate I^k = 0
    # (k = vanishing) kills K^MW_m * I^N in every degree m once N >= k, so
    # from that cutoff on a nonzero tail is a failure.
    if field.vanishing_power is not None:
        tail = not level.is_zero and cutoff >= max(p, q) + field.vanishing_power
        return (f"tail not zero at (p,q)=({p},{q})",) if tail else ()
    # Over R, I(R)^N = 2^(N-1) Z in the index coordinate (N >= 1) puts the
    # level in 2^(N-1) L when m = 0 and in 2^N L when m != 0 (signatures
    # and c of c [-1]^m gain the factor 2), so k = N - [p == q].  The
    # least 2-adic valuation of the basis entries is that of the level.
    k = cutoff - max(p, q) - (p == q)
    low = min(((e & -e).bit_length() - 1 for row in level.basis for e in row if e), default=k)
    return (f"level not in 2^{k} L at (p,q)=({p},{q})",) if low < k else ()


# -- the Moore-spectrum counterexample ---------------------------------------------

# Largest supported ell: primality is tested by trial division up to sqrt(ell).
MAX_ELL = 10**12


def gw_mod_ell_ambient(field: FieldDescriptor, ell: int) -> Ambient:
    """GW(F)/ell coordinates: the free GW coordinates mod ell.

    The torsion of GW(F) is 2-primary (disc_dev over F_q), so it dies for odd ell.
    """
    amb = field.gw_ambient
    free = amb.free_rank
    return Ambient(0, (ell,) * free, amb.coord_names[:free], f"GW({field})/{ell}")


def moore_filtration(ell: int, field: FieldDescriptor, n: int) -> SubgroupDescription:
    """Image of I(F)^n in GW(F)/ell, the pi_{0,0} filtration of the mod-ell Moore spectrum.

    Over a real closed field the image is Z/ell for every n >= 1 (the
    filtration is constant, hence not separated); over a finite field the
    augmentation ideal is 2-primary torsion, so the image vanishes.
    """
    if ell > MAX_ELL:
        raise ValueError(f"ell {ell} exceeds the supported bound {MAX_ELL}")
    if ell == 2 or ell < 2 or any(ell % k == 0 for k in range(2, isqrt(ell) + 1)):
        raise ValueError("ell must be an odd prime")
    if n < 0:
        raise ValueError("filtration levels are indexed by naturals")
    check_index("n", n)
    ambient = gw_mod_ell_ambient(field, ell)
    if n == 0:
        return full_subgroup(ambient)
    desc = kmw_times_In(0, n, field)
    # torsion coordinates are killed: (0, 1) = ell * (0, 1) in GW(F_q) since ell is odd
    gens = tuple(tuple(c % ell for c in g[: ambient.dim]) for g in desc.basis)
    return SubgroupDescription(ambient, gens)
