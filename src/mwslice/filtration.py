"""The Tate/slice filtration on homotopy of the sphere, in coordinates.

For integers n, p, q and a supported field F the filtration level is the
subgroup K^MW_{q-p}(F) * I(F)^N with N = max(0, min(n-p, n-q)); for n <= p it
is the whole group.  Every level lives in the degree-(q-p) coordinate group
``kmw_ambient(F, q-p)``; only the CLI report shows a positive-degree level as
the ideal I^{N+m} in GW coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from mwslice.abelian import (
    Ambient,
    QuotientShape,
    SubgroupDescription,
    full_subgroup,
)
from mwslice.fields import FieldDescriptor
from mwslice.forms import (
    fundamental_power_description,
    fundamental_power_in_witt,
    gw_ambient,
)
from mwslice.milnor_witt import (
    eta_power_times,
    kmw_ambient,
    kmw_generating_forms,
)


def shift_index(a: int, b: int) -> int:
    """N(a, b) = max(0, min(a, b))."""
    return max(0, min(a, b))


@dataclass(frozen=True)
class FiltrationQuery:
    n: int
    p: int
    q: int
    field: FieldDescriptor

    @property
    def degree(self) -> int:
        return self.q - self.p

    @property
    def N(self) -> int:
        return shift_index(self.n - self.p, self.n - self.q)

    def to_json(self) -> dict:
        return {"n": self.n, "p": self.p, "q": self.q, "field": str(self.field)}


def kmw_times_In(m: int, n: int, field: FieldDescriptor) -> SubgroupDescription:
    """The subgroup K^MW_m(F) * I(F)^n in the degree-m coordinate group.

    n = 0 gives the full group; for n >= 1 it is I^n in Witt coordinates when
    m < 0, I^n in GW coordinates when m = 0, and the model's generators of
    K^MW_m * I^n when m > 0.
    """
    if n < 0:
        raise ValueError("ideal powers are indexed by naturals")
    if n == 0:
        return full_subgroup(kmw_ambient(field, m))
    if m < 0:
        return fundamental_power_in_witt(field, n)
    if m == 0:
        return fundamental_power_description(field, n)
    return SubgroupDescription(kmw_ambient(field, m), field.model.level_generators(n))


def tate_filtration(query: FiltrationQuery) -> SubgroupDescription:
    """F^n_Tate of pi_{p,p} of the q-fold twist, evaluated at the field.

    The level is K^MW_{q-p} * I^N with N from shift_index; for n <= p, N = 0
    and the level is the whole group (the stabilization regime).
    """
    return kmw_times_In(query.degree, query.N, query.field)


def filtration_in_degree_coords(query: FiltrationQuery) -> SubgroupDescription:
    """The same level as tate_filtration, kept as a separately traced name."""
    return tate_filtration(query)


@dataclass(frozen=True)
class FiltrationReport:
    query: FiltrationQuery
    N: int
    subgroup: SubgroupDescription

    def to_json(self) -> dict:
        return {
            "query": self.query.to_json(),
            "N": self.N,
            "subgroup": self.subgroup.describe(),
        }


def filtration_report(query: FiltrationQuery) -> FiltrationReport:
    """The level as the CLI shows it: I^{N+m} in GW coordinates when m, N >= 1."""
    m, N = query.degree, query.N
    if m >= 1 and N >= 1:
        return FiltrationReport(query, N, fundamental_power_description(query.field, N + m))
    return FiltrationReport(query, N, tate_filtration(query))


def graded_piece(query: FiltrationQuery) -> QuotientShape:
    """F^n / F^{n+1} computed inside the degree coordinates."""
    top = tate_filtration(query)
    nxt = tate_filtration(
        FiltrationQuery(query.n + 1, query.p, query.q, query.field)
    )
    return top.quotient_shape(nxt)


def eta_image_subgroup(query: FiltrationQuery) -> SubgroupDescription:
    """Image of x eta^M : K^MW_{q-p+M} -> K^MW_{q-p}, M = N or p - q + N.

    This is the independent computation of the filtration subgroup used by the
    consistency tests: the main theorem's proof identifies the level with this
    eta-power image (for n > p).
    """
    field, m, N = query.field, query.degree, query.N
    M = N if m >= 0 else -m + N
    gens = []
    for nf in kmw_generating_forms(field, m + M):
        img = eta_power_times(nf, M)
        gens.append(img.coords() if img.degree is not None else ())
    ambient = kmw_ambient(field, m)
    return SubgroupDescription(ambient, tuple(g for g in gens if len(g) == ambient.dim))


# -- convergence -------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    field: FieldDescriptor
    cutoff: int
    separated: bool
    certificate: str
    details: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "field": str(self.field),
            "cutoff": self.cutoff,
            "separated": self.separated,
            "certificate": self.certificate,
            "details": list(self.details),
        }


def convergence_check(field: FieldDescriptor, cutoff: int) -> ConvergenceReport:
    """Verify that the filtration of K^MW_{q-p} is separated up to the cutoff.

    Checks monotonicity of the chain on a small (p, q) grid and certifies the
    vanishing of the intersection structurally with the model's certificate:
    I^2 = 0 over a finite field, the dyadic valuation bound on signatures over
    a real closed field, and I = 0 over a quadratically closed field.  Where
    some I^k vanishes the tail of each chain must be zero; otherwise fixed
    elements are probed to leave the chain.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    vanishing = field.model.vanishing_power
    details = []
    ok = True
    for p in range(0, 3):
        for q in range(0, 3):
            chain = [
                tate_filtration(FiltrationQuery(n, p, q, field))
                for n in range(0, cutoff + 1)
            ]
            for a, b in zip(chain, chain[1:]):
                if not b <= a:
                    ok = False
                    details.append(f"monotonicity fails at (p,q)=({p},{q})")
            if vanishing is not None:
                if not chain[-1].is_zero and cutoff >= max(p, q) + 2:
                    ok = False
                    details.append(f"tail not zero at (p,q)=({p},{q})")
                continue
            # any fixed nonzero coordinate leaves the chain at a finite stage
            for c in (1, 2, 3, 4):
                stays = all(level.contains(_embed(field, q - p, c)) for level in chain[1:])
                if stays and cutoff > p + c.bit_length() + 2:
                    ok = False
                    details.append(f"element {c} never leaves the chain at ({p},{q})")
    if vanishing is not None and not fundamental_power_description(field, vanishing).is_zero:
        ok = False
        details.append(f"I^{vanishing} is not zero")
    if ok:
        details.append("intersection of the chain is zero at the cutoff")
    return ConvergenceReport(field, cutoff, ok, field.model.certificate, tuple(details))


def _embed(field: FieldDescriptor, m: int, c: int) -> tuple[int, ...]:
    """A nonzero degree-m coordinate vector scaled by c, for probing chains."""
    amb = kmw_ambient(field, m)
    if amb.dim == 0:
        return ()
    v = [0] * amb.dim
    v[-1] = c
    return tuple(v)


# -- the Moore-spectrum counterexample ---------------------------------------------

# Largest supported ell: primality is tested by trial division up to sqrt(ell).
MAX_ELL = 10**12


def gw_mod_ell_ambient(field: FieldDescriptor, ell: int) -> Ambient:
    """GW(F)/ell coordinates: the free GW coordinates mod ell.

    The torsion of GW(F) is 2-primary (disc_dev over F_q), so it dies for odd ell.
    """
    amb = gw_ambient(field)
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
    ambient = gw_mod_ell_ambient(field, ell)
    if n == 0:
        return full_subgroup(ambient)
    desc = fundamental_power_description(field, n)
    # torsion coordinates are killed: (0, 1) = ell * (0, 1) in GW(F_q) since ell is odd
    gens = tuple(tuple(c % ell for c in g[: ambient.dim]) for g in desc.generators)
    return SubgroupDescription(ambient, gens)
