"""The four-part light-front Yukawa Hamiltonian as a Pauli sum.

``H = H_M + H_V + H_S + H_F``: a mass/number part, a cubic vertex part and two
quartic parts (seagull and fork).  Every interaction coefficient is a momentum
bracket evaluated explicitly, so only momentum-conserving index tuples emit
terms and the assembled operator commutes with both light-front charges, the
harmonic resolution K and the baryon number Q, by construction.

Each part is a list of jobs ``w * (A . B)``: a weight and two named operands, each a
ladder operator or the product of two, from a per-build cache that forms all the
products a part needs in one batch.  Zero-weight jobs are dropped, and a "+ h.c."
family lists each job's adjoint straight after it, named by one rule: a ladder's
dagger flipped, a product's factors reversed.  The jobs go to ``pauli.sum_of_products``
in slices, one per outer mode index, which sums them in array passes with the arithmetic
of adding each term into a dict one at a time (``tests/oracles.py`` keeps that loop as
the reference).  ``build_h`` shares one cache across the parts it sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import ModeConfig, QubitLayout
from .pauli import PauliSum, adjoint, boson_ladder, fermion_ladder, products, sum_of_products

__all__ = [
    "ModelParams",
    "PARTS",
    "bracket",
    "self_inertia",
    "build_part",
    "build_h",
]

PARTS = ("HM", "HV", "HS", "HF")


@dataclass(frozen=True)
class ModelParams:
    """Physics configuration, masses in pion-mass units.

    ``coupling`` is the bare lambda; the vertex strength is g = lambda/sqrt(4*pi).
    The box length is fixed at 2*pi (in 1/m_pi), so the operator generates light-front
    time itself.  ``inertia_cutoff`` bounds the self-induced inertia sums and must not
    be below the largest mode number in play.  Each field is a ``parse_config`` key with
    this default, checked as a number, an integer or a boolean by the default's type.
    ``validate`` also refuses a weight factor that overflows and, given the register, a
    bound on the assembled coefficients (``_coefficient_scale``) that overflows.
    """

    fermion_mass: float = 6.7
    boson_mass: float = 1.0
    coupling: float = 1.0
    inertia_cutoff: int = 2048
    include_inertias: bool = False

    @property
    def g(self) -> float:
        return self.coupling / math.sqrt(4.0 * math.pi)

    def validate(self, config: ModeConfig | None = None):
        if self.fermion_mass <= 0 or self.boson_mass <= 0:
            raise ValueError("masses must be positive (massive-field regularization)")
        g, mf, mb = abs(self.g), self.fermion_mass, self.boson_mass
        factors = (("boson_mass", mb * mb), ("fermion_mass", mf * mf), ("coupling", g * g),
                   ("coupling", g * mf))
        for key, factor in factors:
            if not math.isfinite(factor):
                raise ValueError(f"{key}: a weight factor (m_B^2, m_F^2, g^2, g*m_F) overflows")
        if config is not None:
            n_max = max(config.n_fermion_modes, config.n_antifermion_modes, config.n_boson_modes)
            if self.inertia_cutoff < n_max:
                raise ValueError(
                    f"inertia_cutoff {self.inertia_cutoff} below the largest mode number {n_max}"
                )
            scale = _coefficient_scale(config, self)
            for key, factor in factors:
                if not math.isfinite(scale * factor):
                    raise ValueError(f"{key}: the bound on the Hamiltonian's coefficients, "
                                     "jobs x largest weight x operand 1-norms, overflows")


def bracket(n: int, m: int) -> float:
    """Momentum bracket {n|m}: zero when either argument is zero, else (1/n) delta(m, -n)."""
    if n == 0 or m == 0:
        return 0.0
    return 1.0 / n if m == -n else 0.0


_HARMONIC_SUMMED = 256  # H(m) summed term by term up to here, by its asymptotic series above
_EULER_GAMMA = 0.5772156649015329


def _harmonic(m: int) -> float:
    """H(m) = 1 + 1/2 + ... + 1/m; above _HARMONIC_SUMMED its Euler-Maclaurin series,
    ln m + gamma + 1/(2m) - 1/(12m^2) + 1/(120m^4) - 1/(252m^6), within 1e-17 there."""
    if m <= _HARMONIC_SUMMED:
        return math.fsum(1 / k for k in range(1, m + 1))
    inv = 1 / m  # int / int: no float conversion of a huge m
    sq = inv * inv
    return math.log(m) + _EULER_GAMMA + inv / 2 - sq * (1 / 12 - sq * (1 / 120 - sq / 252))


def self_inertia(kind: str, n: int, cutoff: int) -> float:
    """Self-induced inertia alpha_n, beta_n or gamma_n summed up to the cutoff M >= n.

    The sums over m = 1..M of {n-m|m-n} - {n+m|-m-n}, (n/m){n-m|m-n} and (n/m){n+m|-m-n}
    split into harmonic numbers H, so none of them loops over M:
    alpha_n = H(n-1) + H(n) - H(M-n) - H(M+n),
    beta_n = H(n-1) - 1/n + sum_{k=M-n+1}^{M} 1/k and
    gamma_n = H(n) - sum_{k=M+1}^{M+n} 1/k.
    """
    if n < 1:
        raise ValueError("mode number must be at least 1")
    if cutoff < n:
        raise ValueError(f"inertia cutoff {cutoff} below the mode number {n}")
    if kind == "alpha":
        return _harmonic(n - 1) + _harmonic(n) - _harmonic(cutoff - n) - _harmonic(cutoff + n)
    if kind == "beta":
        top = (1 / k for k in range(cutoff - n + 1, cutoff + 1))
        return math.fsum([_harmonic(n - 1), -1 / n, *top])
    if kind == "gamma":
        past = (-1 / k for k in range(cutoff + 1, cutoff + n + 1))
        return math.fsum([_harmonic(n), *past])
    raise ValueError(f"unknown inertia kind {kind!r}")


class _Ladders:
    """Per-build cache of the ladder operators and their pair products.

    An operand is named by a base key, ``("f", species, mode, dagger)``, ``("a",
    mode, dagger)`` for a_n or ``("c", mode, dagger)`` for c_n = a_n/sqrt(n), or
    by a pair of base keys for their product.  ``operands`` forms the products
    it has not seen in one batch.
    """

    def __init__(self, layout: QubitLayout, cross_species_string: bool):
        self.layout = layout
        self.cross = cross_species_string
        self._ops: dict[tuple, PauliSum] = {}

    def __getitem__(self, key: tuple) -> PauliSum:
        """A base operand, or a product that ``operands`` has formed."""
        if key not in self._ops:
            kind, *args = key
            if kind == "f":
                op = fermion_ladder(*args, self.layout, self.cross)
            elif kind == "a":  # both from one raiser, as boson_ladder builds a_n
                mode, dagger = args
                op = boson_ladder(mode, True, self.layout) if dagger else adjoint(self["a", mode, True])
            else:
                mode, dagger = args
                op = self["a", mode, dagger] * (1.0 / math.sqrt(mode))
            self._ops[key] = op
        return self._ops[key]

    def operands(self, names) -> list[PauliSum]:
        """The named operands; products not yet formed are formed in one batch."""
        fresh = dict.fromkeys(names)
        pairs = [name for name in fresh if isinstance(name[0], tuple) and name not in self._ops]
        if pairs:
            lefts = [self[a] for a, _ in pairs]
            rights = [self[b] for _, b in pairs]
            self._ops.update(zip(pairs, products(lefts, rights)))
        return [self[name] for name in names]


def _f(species: str, mode: int, dagger: bool) -> tuple:
    return ("f", species, mode, dagger)


def _c(mode: int, dagger: bool) -> tuple:
    return ("c", mode, dagger)


def _dagger(name: tuple) -> tuple:
    """The adjoint operand's name: a base key's dagger flipped, a product's keys reversed."""
    if isinstance(name[0], tuple):
        a, b = name
        return _dagger(b), _dagger(a)
    return (*name[:-1], not name[-1])


def _nonzero(jobs) -> list:
    return [job for job in jobs if job[2] != 0.0]


def _plus_hc(jobs) -> list:
    """The nonzero jobs of an "X + h.c." family, each followed by its adjoint job."""
    return [job for left, right, w in _nonzero(jobs)
            for job in ((left, right, w), (_dagger(left), _dagger(right), w))]


def _part_slices(part: str, config: ModeConfig, params: ModelParams):
    """The part's jobs ``(left, right, weight)``, one list per outer mode index."""
    nf, na, nb = config.n_fermion_modes, config.n_antifermion_modes, config.n_boson_modes
    g = params.g
    mf, mb = params.fermion_mass, params.boson_mass

    if part == "HM":
        # (m^2 + inertia) / n times a number operator, self-adjoint, for each species
        jobs = []
        kinds = (("alpha", mb, nb, ("a",)), ("beta", mf, nf, ("f", "fermion")),
                 ("gamma", mf, na, ("f", "antifermion")))
        for kind, mass, n_modes, base in kinds:
            for n in range(1, n_modes + 1):
                coeff = mass**2
                if params.include_inertias:
                    coeff += g**2 * self_inertia(kind, n, params.inertia_cutoff)
                jobs.append(((*base, n, True), (*base, n, False), coeff / n))
        yield jobs

    elif part == "HV":
        # b_k^dag b_m c_l^dag + h.c. with m = k + l, and the d twin
        for species, n_modes in (("fermion", nf), ("antifermion", na)):
            for k in range(1, n_modes + 1):
                jobs = []
                for l in range(1, min(nb, n_modes - k) + 1):
                    m = k + l
                    w = g * mf * (bracket(k + l, -m) + bracket(k, l - m))
                    jobs.append(((_f(species, k, True), _f(species, m, False)), _c(l, True), w))
                yield _plus_hc(jobs)
        # pair production/annihilation: -(b_k d_m c_l^dag + h.c.)
        for k in range(1, nf + 1):
            jobs = []
            for m in range(1, min(na, nb - k) + 1):
                l = k + m
                w = g * mf * (bracket(k - l, m) + bracket(k, m - l))
                jobs.append(((_f("fermion", k, False), _f("antifermion", m, False)), _c(l, True), -w))
            yield _plus_hc(jobs)

    elif part == "HS":
        # b_k^dag b_m c_l^dag c_n, and the d twin: self-adjoint as a sum
        for species, n_modes in (("fermion", nf), ("antifermion", na)):
            for k in range(1, n_modes + 1):
                jobs = []
                for m in range(1, n_modes + 1):
                    for l in range(1, nb + 1):
                        n = k + l - m
                        if not 1 <= n <= nb:
                            continue
                        w = g**2 * (bracket(k - n, l - m) + bracket(k + l, -m - n))
                        bilinear = (_f(species, k, True), _f(species, m, False))
                        jobs.append((bilinear, (_c(l, True), _c(n, False)), w))
                yield _nonzero(jobs)
        # d_k b_m c_l^dag c_n^dag + h.c.: pair annihilation into two bosons
        for k in range(1, na + 1):
            jobs = []
            for m in range(1, nf + 1):
                for l in range(1, nb + 1):
                    n = k + m - l
                    if not 1 <= n <= nb:
                        continue
                    w = g**2 * bracket(l - k, n - m)
                    pair = (_f("antifermion", k, False), _f("fermion", m, False))
                    jobs.append((pair, (_c(l, True), _c(n, True)), w))
            yield _plus_hc(jobs)

    elif part == "HF":
        # b_k^dag b_m c_l^dag c_n^dag + h.c. with m = k + l + n, and the d twin
        for species, n_modes in (("fermion", nf), ("antifermion", na)):
            for k in range(1, n_modes + 1):
                jobs = []
                for l in range(1, nb + 1):
                    for n in range(1, min(nb, n_modes - k - l) + 1):
                        m = k + l + n
                        w = g**2 * bracket(k + l, n - m)
                        up = (_f(species, k, True), _f(species, m, False))
                        jobs.append((up, (_c(l, True), _c(n, True)), w))
                yield _plus_hc(jobs)
        # boson splitting into a pair plus a boson: b_k^dag d_m^dag c_l^dag c_n + h.c.
        for k in range(1, nf + 1):
            jobs = []
            for m in range(1, na + 1):
                for l in range(1, nb - k - m + 1):
                    n = k + l + m
                    w = g**2 * (bracket(k - n, m + l) + bracket(k + l, m - n))
                    pair_dag = (_f("fermion", k, True), _f("antifermion", m, True))
                    jobs.append((pair_dag, (_c(l, True), _c(n, False)), w))
            yield _plus_hc(jobs)


def _coefficient_scale(config: ModeConfig, params: ModelParams) -> float:
    """A factor that, times the largest of m_B^2, m_F^2, g^2 and g m_F, bounds every coefficient.

    A coefficient sums w * (a coefficient of A . B) over the jobs of ``_part_slices``, so it is
    at most (number of jobs) * max|w| * |A|_1 * |B|_1, with |.|_1 the coefficient 1-norm.
    - A bracket sum is at most 2 and a self-inertia at most I = 2 (1 + ln inertia_cutoff), so
      every weight, (m^2 + g^2 * inertia) / n, 2 g m_F or 2 g^2, is at most 2 max(1, I) times
      the largest weight factor.
    - A fermion operand (a ladder or a product of two) has 1-norm at most 1.  A boson ladder's
      is at most modals^(3/2): it moves between modals + 1 levels by at most sqrt(modals), and
      each move is a product of single-qubit operators of 1-norm 1.  So |A|_1 |B|_1 <= modals^3.
    - The jobs are at most the iterations of ``_part_slices``' loops, counted part by part.
    """
    nf, na, nb = config.n_fermion_modes, config.n_antifermion_modes, config.n_boson_modes
    jobs = (
        nf + na + nb  # H_M
        + 2 * (nf + na) * nb + 2 * nf * na  # H_V
        + (nf * nf + na * na) * nb + 2 * na * nf * nb  # H_S
        + 2 * (nf + na) * nb * nb + 2 * nf * na * nb  # H_F
    )
    inertia = 2 * (1 + math.log(params.inertia_cutoff)) if params.include_inertias else 0.0
    return 2 * max(1.0, inertia) * jobs * max(config.boson_modals) ** 3


def build_part(
    part: str,
    config: ModeConfig,
    params: ModelParams,
    layout: QubitLayout,
    cross_species_string: bool = True,
) -> PauliSum:
    """One of the four Hamiltonian parts as a canonical Pauli sum."""
    return _build_part(part, config, params, _Ladders(layout, cross_species_string))


def _build_part(part: str, config: ModeConfig, params: ModelParams, lad: _Ladders) -> PauliSum:
    """Sum_j w_j * (A_j . B_j) over the part's jobs, sliced as (lefts, rights, weights)."""
    if part not in PARTS:
        raise ValueError(f"unknown Hamiltonian part {part!r}")
    params.validate(config)
    slices = [tuple(zip(*jobs)) for jobs in _part_slices(part, config, params) if jobs]
    lad.operands([name for lefts, rights, _ in slices for name in lefts + rights])
    batches = ((lad.operands(lefts), lad.operands(rights), w) for lefts, rights, w in slices)
    return sum_of_products(lad.layout.total_qubits, batches)


def build_h(
    config: ModeConfig,
    params: ModelParams,
    layout: QubitLayout,
    parts: tuple[str, ...] = PARTS,
    cross_species_string: bool = True,
) -> PauliSum:
    """Canonical sum of the requested Hamiltonian parts (all four by default)."""
    lad = _Ladders(layout, cross_species_string)
    total = PauliSum.zero(layout.total_qubits)
    for part in parts:
        total = total + _build_part(part, config, params, lad)
    return total

