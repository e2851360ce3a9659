"""Characterization functions for surface curves and their constancy verdicts.

The scalar functions computed here decide, per sample grid, whether a curve
is a relatively normal-slant helix (the Darboux V field keeps a constant
angle to some fixed axis), an isophotic curve (the surface normal U does),
a slant helix, or a rectifying curve; recover the axis and angle from the
frame samples; and test the position-vector identities that hold when the
curve lies in the moving plane span{T, U} or span{T, V}.

Plane labels: "TU" refers to the span{T, U} family (V-slant measure mu_v),
"TV" to the span{T, V} family (isophote measure mu_u).  Each formula,
verdict block and cross-check is written once and run over the family
table ``_FAMILIES``.  The two families are not one statement with U and V
exchanged: with V = U x T the frame equations are T' = k_g V + k_n U,
V' = -k_g T + tau_g U and U' = -k_n T - tau_g V, and exchanging U and V
reverses the frame's orientation.  A family's ``sign`` carries the
difference, as in the measures (see ``mu_v_series`` and ``mu_u_series``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DarbouxError,
    DegenerateFrameError,
    InsufficientSamplesError,
    numerical,
)
from .frames import (
    EPS_KAPPA,
    CurveOnSurface,
    FrameData,
    _frenet_columns,
    deriv_uniform,
    sample_frames,
)
from .surface import _pow, dot3, norm3

__all__ = [
    "CharacterizationSeries",
    "ConstancyVerdict",
    "AxisEstimate",
    "ClassificationReport",
    "mu_v_series",
    "mu_u_series",
    "slant_helix_series",
    "slant_series_from_scalars",
    "theorem_functions",
    "position_decomposition",
    "position_theorem_residual",
    "plane_ode_residual",
    "is_constant",
    "recover_axis",
    "rectifying_check",
    "rectifying_from_scalars",
    "classify_report",
]

# Non-degeneracy thresholds and report tolerances (see docs/formats.md).
EPS_PAIR = 1e-9          # (a, tau_g) != (0, 0): a^2 + tau_g^2 > EPS_PAIR^2
EPS_DIVISOR = 1e-9       # k_g (span{T,U}) or k_n (span{T,V}) != 0: |a| > EPS_DIVISOR
EPS_RECTIFYING = 1e-9    # a rectifying fit's slope and intercept are nonzero above it
AXIS_GAP = 1e-12         # covariance eigenvalues closer than this: an ambiguous axis
FLAG_TOL = 1e-8          # special-type flags, times the frame scale 1 + max kappa
PLANE_TOL = 1e-8         # plane membership, times the position scale 1 + max |gamma|
CONSTANCY_TOL_ANALYTIC = 1e-6   # constancy verdicts on analytic input
CONSTANCY_TOL_SAMPLED = 1e-3    # and on sampled (polyline) input


@dataclass
class CharacterizationSeries:
    """Scalar function of arclength with a defined-mask."""

    s: np.ndarray
    values: np.ndarray
    mask: np.ndarray  # True where the defining preconditions held
    name: str

    def defined_values(self) -> np.ndarray:
        return self.values[self.mask]


@dataclass
class ConstancyVerdict:
    is_constant: bool
    mean: float
    max_abs_dev: float
    tol: float

    def as_dict(self):
        return {
            "is_constant": self.is_constant,
            "mean": self.mean,
            "max_abs_dev": self.max_abs_dev,
            "tol": self.tol,
        }


@dataclass
class AxisEstimate:
    d: np.ndarray
    angle: float  # radians in [0, pi]
    variance: float
    ambiguous: bool = False
    candidates: tuple | None = None

    def as_dict(self):
        out = {
            "d": list(self.d),
            "angle_rad": self.angle,
            "angle_deg": math.degrees(self.angle),
            "projection_variance": self.variance,
            "ambiguous": self.ambiguous,
        }
        if self.candidates is not None:
            out["candidates"] = [list(c) for c in self.candidates]
        return out


def _as_data(c, grid) -> FrameData:
    if isinstance(c, FrameData):
        return c
    return sample_frames(c, np.asarray(grid, dtype=float))


def _edge_mask(n: int, sampled: bool) -> np.ndarray:
    # sampled-polyline input: stencil edges are excluded from statistics
    mask = np.ones(n, dtype=bool)
    if sampled and n > 4:
        mask[:2] = mask[-2:] = False
    return mask


# ---------------------------------------------------------------------------
# The two moving-plane families


# A family holds its FrameData divisor ``a`` (derivative ``"d" + a``) and
# partner ``other``, the sign of its exponential integral and of its
# measure's ``other`` q term, and the names of its series, verdicts, flags,
# cross-checks and errors; ``off_plane`` is the PositionDecomposition series
# that vanishes in the plane, ``plane_vector`` the FrameData vector that
# spans it with T.
_Family = namedtuple("_Family", (
    "which a other sign degenerate measure verdict position criterion coefficients "
    "in_plane off_plane plane_vector residual ode_residual loc_check shape_flag shape_check"))

_FAMILIES = (
    _Family(
        which="TU", a="kg", other="kn", sign=1.0,
        degenerate="TU family (relatively normal-slant): |k_g|",
        measure="mu_v", verdict="rel_normal_slant", position="rel_normal_slant_position",
        criterion="slant_criterion", coefficients=("lambda1", "lambda2"),
        in_plane="in_plane_TU", off_plane="dot_V", plane_vector="U",
        residual="position_residual_TU", ode_residual="plane_ode_residual_TU",
        loc_check="line_of_curvature_TU_slant_implies_kg_constant",
        shape_flag="asymptotic", shape_check="asymptotic_TU_slant_iff_frenet_shape_constant"),
    _Family(
        which="TV", a="kn", other="kg", sign=-1.0,
        degenerate="TV family (isophotic): |k_n|",
        measure="mu_u", verdict="isophotic", position="isophotic_position",
        criterion="isophote_criterion", coefficients=("mu1", "mu2"),
        in_plane="in_plane_TV", off_plane="dot_U", plane_vector="V",
        residual="position_residual_TV", ode_residual="plane_ode_residual_TV",
        loc_check="line_of_curvature_TV_isophotic_implies_kn_constant",
        shape_flag="geodesic", shape_check="geodesic_TV_isophotic_iff_frenet_shape_constant"),
)
_TU, _TV = _FAMILIES


def _family(which) -> _Family:
    for fam in _FAMILIES:
        if which == fam.which:
            return fam
    raise ValueError(f"which must be 'TU' or 'TV', got {which!r}")


# ---------------------------------------------------------------------------
# Constancy measures


def mu_v_series(c, grid=None) -> CharacterizationSeries:
    """V-slant measure (k_g tau_g' - tau_g k_g' - k_n q)/q^{3/2} with
    q = k_g^2 + tau_g^2: constant iff the curve is a relatively
    normal-slant helix (requires (tau_g, k_g) != (0, 0) pointwise).

    Where <V, d> = cos(phi), V' = -k_g T + tau_g U gives <T, d> = l tau_g
    and <U, d> = l k_g with l sqrt(q) = +-sin(phi); differentiating both
    once more, the measure is cos(phi)/(l sqrt(q)) = +-cot(phi), with the
    sign of l."""
    return _pair_measure(_as_data(c, grid), _TU)


def mu_u_series(c, grid=None) -> CharacterizationSeries:
    """Isophote measure (k_n tau_g' - tau_g k_n' + k_g q)/q^{3/2} with
    q = k_n^2 + tau_g^2: constant iff the curve is isophotic (requires
    (tau_g, k_n) != (0, 0) pointwise).

    Where <U, d> = cos(phi), U' = -k_n T - tau_g V gives <T, d> = l tau_g
    and <V, d> = -l k_n with l sqrt(q) = +-sin(phi); differentiating both
    once more, the measure is cos(phi)/(l sqrt(q)) = +-cot(phi), with the
    sign of l = <T, d>/tau_g."""
    return _pair_measure(_as_data(c, grid), _TV)


def _pair_measure(data, fam):
    # (a tg' - tg a' - sign other (a^2 + tg^2)) / (a^2 + tg^2)^{3/2}
    a, da, other = getattr(data, fam.a), getattr(data, "d" + fam.a), getattr(data, fam.other)
    tg, dtg = data.tg, data.dtg
    q = a * a + tg * tg
    mask = (q > EPS_PAIR * EPS_PAIR) & _edge_mask(data.n, not data.analytic)
    if not mask.any():
        raise DegenerateFrameError(
            f"{fam.measure}: degenerate pair everywhere on the grid "
            f"(a^2 + tau_g^2 <= {EPS_PAIR:g}^2)"
        )
    values = np.full(data.n, np.nan)
    values[mask] = (a * dtg - tg * da - fam.sign * other * q)[mask] / _pow(q[mask], 1.5, math.inf)
    return CharacterizationSeries(data.s, values, mask, fam.measure)


def slant_series_from_scalars(grid, kappa, tau) -> CharacterizationSeries:
    """kappa^2 / (kappa^2 + tau^2)^{3/2} * (tau/kappa)' from scalar samples,
    the derivative of tau/kappa by central differences."""
    grid = np.asarray(grid, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    tau = np.asarray(tau, dtype=float)
    dratio = deriv_uniform(tau / kappa, grid[1] - grid[0])
    values = kappa**2 / _pow(kappa**2 + tau**2, 1.5, math.inf) * dratio
    return CharacterizationSeries(grid, values, np.ones(len(grid), dtype=bool), "slant_helix")


def slant_helix_series(c, grid) -> CharacterizationSeries:
    """Slant-helix measure along a curve; constant iff the principal normal
    keeps a constant angle with a fixed direction (kappa > EPS_KAPPA)."""
    grid = np.asarray(grid, dtype=float)
    *_, kappa, tau = _frenet_columns(c, grid)
    series = slant_series_from_scalars(grid, kappa, tau)
    series.mask = _edge_mask(len(grid), isinstance(c, CurveOnSurface) and not c.analytic)
    return series


# ---------------------------------------------------------------------------
# Exponential-integral characterizations and plane coefficients


@dataclass
class TheoremFunctions:
    """The two plane-family characterization functions and the position
    coefficients, for a chosen free constant c."""

    slant_criterion: CharacterizationSeries | None
    isophote_criterion: CharacterizationSeries | None
    lambda1: CharacterizationSeries | None
    lambda2: CharacterizationSeries | None
    mu1: CharacterizationSeries | None
    mu2: CharacterizationSeries | None
    c_const: float


def _simpson_pieces(y, dx):
    """scipy's _cumulative_simpson_unequal_intervals: the Simpson integral
    over the first interval of each pair (dx[i], dx[i + 1])."""
    x21, x32 = dx[:-1], dx[1:]
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def _cumulative_integral(y, s):
    """0 followed by scipy.integrate.cumulative_simpson(y, x=s), with its
    bits: the unequal-interval Simpson pieces of the forward and of the
    flipped pass, interleaved and summed by np.cumsum; below 3 samples the
    cumulative trapezoid rule, as scipy falls back to."""
    dx = s[1:] - s[:-1]
    if len(y) < 3:
        pieces = dx * (y[1:] + y[:-1]) / 2.0
    else:
        if (dx <= 0).any():
            raise ValueError("Input x must be strictly increasing.")
        forward = _simpson_pieces(y, dx)
        backward = _simpson_pieces(y[::-1], dx[::-1])[::-1]
        pieces = np.empty(len(dx))
        pieces[:-1:2] = forward[::2]
        pieces[1::2] = backward[::2]
        pieces[-1] = backward[-1]
    return np.concatenate([[0.0], np.cumsum(pieces)])


def theorem_functions(c, grid=None, c_const: float = 1.0,
                      family: str = "both") -> TheoremFunctions:
    """Characterization functions for the span{T,U} ("TU") and span{T,V}
    ("TV") families, with cumulative integrals started at the grid's first
    sample and free constant ``c_const`` (verdict-level results are invariant
    to both choices).

    Raises DegenerateFrameError naming the family whose divisor (k_g for TU,
    k_n for TV) falls below EPS_DIVISOR anywhere on the grid.
    """
    if c_const == 0.0:
        raise ValueError("free constant c must be nonzero")
    if family not in ("both", "TU", "TV"):
        raise ValueError(f"unknown family {family!r}")
    data = _as_data(c, grid)
    s = data.s
    mask = _edge_mask(data.n, not data.analytic)
    out = TheoremFunctions(None, None, None, None, None, None, c_const)

    for fam in _FAMILIES:
        if family not in ("both", fam.which):
            continue
        a, other = getattr(data, fam.a), getattr(data, fam.other)
        if np.min(np.abs(a)) <= EPS_DIVISOR:
            raise DegenerateFrameError(f"{fam.degenerate} <= {EPS_DIVISOR:g} on the grid")
        with np.errstate(all="ignore"):  # an overflowing e^I is inf, its products inf or nan
            integral = _cumulative_integral(data.tg * other / a, s)
            q = a**2 + data.tg**2
            # TU: k_g^2 q^{-3/2} e^{I}, lambda1 = c (tg/kg) e^{-I}, lambda2 = c e^{-I};
            # TV: k_n^2 q^{-3/2} e^{-J}, mu1 = -c (tg/kn) e^{J}, mu2 = c e^{J}
            e_pos, e_neg = np.exp(fam.sign * integral), np.exp(-fam.sign * integral)
            coef1, coef2 = fam.coefficients
            for name, values in ((fam.criterion, a**2 / _pow(q, 1.5, math.inf) * e_pos),
                                 (coef1, fam.sign * c_const * (data.tg / a) * e_neg),
                                 (coef2, c_const * e_neg)):
                setattr(out, name, CharacterizationSeries(s, values, mask.copy(), name))

    return out


# ---------------------------------------------------------------------------
# Position-vector identities


@dataclass
class PositionDecomposition:
    dot_T: CharacterizationSeries
    dot_V: CharacterizationSeries
    dot_U: CharacterizationSeries
    in_plane_TU: bool
    in_plane_TV: bool
    plane_tol: float


def position_decomposition(c, grid=None) -> PositionDecomposition:
    """Dot products of the position vector with the Darboux frame, plus
    moving-plane membership flags.

    span{T,U} membership requires max |<gamma,V>| below tolerance; span{T,V}
    requires max |<gamma,U>| below it.  The tolerance is
    PLANE_TOL * (1 + max |gamma|).  span{V,U} has no flag: <gamma,T> = 0 is
    (|gamma|^2)' = 0, a curve on a sphere about the origin, which the
    gamma_dot_T series already shows."""
    data = _as_data(c, grid)
    dt = dot3(data.gamma.T, data.T.T)
    dv = dot3(data.gamma.T, data.V.T)
    du = dot3(data.gamma.T, data.U.T)
    plane_tol = PLANE_TOL * (1.0 + float(np.max(norm3(data.gamma.T))))
    mask = np.ones(data.n, dtype=bool)
    return PositionDecomposition(
        CharacterizationSeries(data.s, dt, mask.copy(), "gamma_dot_T"),
        CharacterizationSeries(data.s, dv, mask.copy(), "gamma_dot_V"),
        CharacterizationSeries(data.s, du, mask.copy(), "gamma_dot_U"),
        bool(np.max(np.abs(dv)) <= plane_tol),
        bool(np.max(np.abs(du)) <= plane_tol),
        plane_tol,
    )


def position_theorem_residual(c, grid=None, which: str = "TU") -> CharacterizationSeries:
    """Residual of the closed-form position identity per sample.

    which="TU": |gamma - (k_g tau_g) q^{-3/2} T - k_g^2 q^{-3/2} U| with
    q = k_g^2 + tau_g^2 (holds for relatively normal-slant helices lying in
    span{T,U}).  which="TV": |gamma - k_n^2 q^{-3/2} V + (k_n tau_g) q^{-3/2} T|
    with q = k_n^2 + tau_g^2."""
    data = _as_data(c, grid)
    fam = _family(which)
    a = getattr(data, fam.a)
    mask = (a * a + data.tg**2 > EPS_PAIR * EPS_PAIR) & _edge_mask(data.n, not data.analytic)
    if not mask.any():
        raise DegenerateFrameError(f"position identity {which}: degenerate pair everywhere")
    am, tgm = a[mask], data.tg[mask]
    q = _pow(am * am + tgm * tgm, 1.5, math.inf)
    claimed = ((fam.sign * (am * tgm / q))[:, None] * data.T[mask]
               + (am * am / q)[:, None] * getattr(data, fam.plane_vector)[mask])
    res = np.full(data.n, np.nan)
    res[mask] = norm3((data.gamma[mask] - claimed).T)
    return CharacterizationSeries(data.s, res, mask, fam.residual)


def plane_ode_residual(c, grid=None, c_const: float = 1.0,
                       which: str = "TU") -> CharacterizationSeries:
    """Residual of the scalar relation tying the curvature ratio to the
    exponential integral, for a supplied nonzero constant c.

    which="TU": |(tg/kg)' - ((tg/kg)^2 + 1) kn - (1/c) exp(I)| with
    I = integral of tg kn / kg.  which="TV": |(tg/kn)' + ((tg/kn)^2 + 1) kg
    + (1/c) exp(-J)| with J = integral of tg kg / kn (the T component of
    gamma' = T for gamma = -(tg/kn) mu2 T + mu2 V, mu2 = c exp(J))."""
    if c_const == 0.0:
        raise ValueError("constant c must be nonzero")
    data = _as_data(c, grid)
    fam = _family(which)
    den, dden, other = getattr(data, fam.a), getattr(data, "d" + fam.a), getattr(data, fam.other)
    if np.min(np.abs(den)) <= EPS_DIVISOR:
        raise DegenerateFrameError(
            f"plane relation {which}: divisor below {EPS_DIVISOR:g} on the grid")
    ratio = data.tg / den
    dratio = (data.dtg * den - dden * data.tg) / den**2
    integrand = data.tg * other / den
    integral = _cumulative_integral(fam.sign * integrand, data.s)
    lhs = dratio - fam.sign * (ratio**2 + 1.0) * other
    rhs = fam.sign * (1.0 / c_const) * np.exp(integral)
    mask = _edge_mask(data.n, not data.analytic)
    return CharacterizationSeries(data.s, np.abs(lhs - rhs), mask, fam.ode_residual)


# ---------------------------------------------------------------------------
# Verdicts


def is_constant(series: CharacterizationSeries, tol: float) -> ConstancyVerdict:
    """Scale-aware constancy: max |w - mean| <= tol * (1 + |mean|)."""
    vals = series.defined_values()
    if len(vals) < 8:
        raise InsufficientSamplesError(
            f"{series.name}: {len(vals)} unmasked samples < 8"
        )
    with np.errstate(all="ignore"):  # a series with inf or nan gives a nan deviation
        mean = float(np.mean(vals))
        dev = float(np.max(np.abs(vals - mean)))
    return ConstancyVerdict(dev <= tol * (1.0 + abs(mean)), mean, dev, tol)


def recover_axis(vectors: np.ndarray) -> AxisEstimate:
    """Axis d minimizing the variance of projections <w_i, d>, as the
    eigenvector of the smallest eigenvalue of the sample covariance; the
    angle is arccos of the (clamped) mean projection.

    Flags ambiguity when the two smallest covariance eigenvalues are within
    AXIS_GAP (both candidate axes reported)."""
    w = np.asarray(vectors, dtype=float)
    if w.ndim != 2 or w.shape[1] != 3 or len(w) < 3:
        raise DarbouxError("recover_axis needs at least 3 vectors of shape (n, 3)")
    mean = w.mean(axis=0)
    centered = w - mean
    # the sum of the samples' outer products, elementwise (no BLAS)
    cov = (centered[:, :, None] * centered[:, None, :]).sum(axis=0) / len(w)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    ambiguous = bool(eigvals[1] - eigvals[0] < AXIS_GAP)
    mean_norm = norm3(mean.tolist())
    if ambiguous and eigvals[1] < AXIS_GAP and mean_norm > 0.0:
        # fully degenerate (e.g. a constant series): every axis has zero
        # projection variance; take the one maximizing the mean projection
        d = mean / mean_norm
        angle = math.acos(min(mean_norm, 1.0))
        return AxisEstimate(d, angle, float(eigvals[0]), True, None)
    d = eigvecs[:, 0]
    proj = dot3(mean.tolist(), d.tolist())
    if proj < 0.0:
        d = -d
        proj = -proj
    angle = math.acos(min(max(proj, -1.0), 1.0))
    candidates = None
    if ambiguous:
        d2 = eigvecs[:, 1]
        if dot3(mean.tolist(), d2.tolist()) < 0:
            d2 = -d2
        candidates = (d.copy(), d2)
    return AxisEstimate(d, float(angle), float(eigvals[0]), ambiguous, candidates)


@dataclass
class RectifyingCheck:
    slope: float
    intercept: float
    fit_residual: float
    is_rectifying: bool
    gamma_dot_N: CharacterizationSeries | None = None


def rectifying_from_scalars(grid, kappa, tau, tol: float = 1e-6) -> RectifyingCheck:
    """Least-squares line through (s, tau/kappa); rectifying iff the fit is
    within tol and both coefficients exceed EPS_RECTIFYING."""
    grid = np.asarray(grid, dtype=float)
    ratio = np.asarray(tau, dtype=float) / np.asarray(kappa, dtype=float)
    slope, intercept = np.polyfit(grid, ratio, 1)
    resid = float(np.max(np.abs(ratio - (slope * grid + intercept))))
    verdict = resid <= tol and abs(slope) > EPS_RECTIFYING and abs(intercept) > EPS_RECTIFYING
    return RectifyingCheck(float(slope), float(intercept), resid, bool(verdict))


def rectifying_check(c, grid) -> RectifyingCheck:
    """Rectifying test for a curve: <gamma, N> residual series plus the
    linear fit of tau/kappa (rectifying_from_scalars at its default tol)."""
    grid = np.asarray(grid, dtype=float)
    gamma, _, N, _, kappa, tau = _frenet_columns(c, grid)
    check = rectifying_from_scalars(grid, kappa, tau)
    check.gamma_dot_N = CharacterizationSeries(
        grid, dot3(gamma.T, N.T), np.ones(len(grid), dtype=bool), "gamma_dot_N")
    return check


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass
class ClassificationReport:
    series: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    orientation: str = ""

    def as_dict(self) -> dict:
        return {
            "series": self.series,
            "verdicts": self.verdicts,
            "flags": self.flags,
            "axes": self.axes,
            "tolerances": self.tolerances,
            "orientation": self.orientation,
        }


def _series_payload(series: CharacterizationSeries, s: list) -> dict:
    """The series' JSON fields; s is the report grid as one list object,
    shared by every series so that the CLI's writer formats it once."""
    mask = series.mask.tolist()
    vals = [None if not m else v for v, m in zip(series.values.tolist(), mask)]
    return {"s": s, "values": vals, "mask": mask}


@numerical
def classify_report(c: CurveOnSurface, grid, constancy: float | None = None,
                    c_const: float = 1.0) -> ClassificationReport:
    """Full classification: constancy verdicts, special-type flags, plane
    memberships, axis estimates, and corollary cross-checks.

    ``constancy`` is the tolerance of every constancy verdict, by default
    CONSTANCY_TOL_ANALYTIC on analytic input and CONSTANCY_TOL_SAMPLED on
    sampled input.  Sub-computations whose preconditions fail are recorded
    under ``verdicts[name]["error"]`` instead of aborting the report."""
    grid = np.asarray(grid, dtype=float)
    data = sample_frames(c, grid)
    s = data.s.tolist()
    tol_const = constancy if constancy is not None else (
        CONSTANCY_TOL_ANALYTIC if data.analytic else CONSTANCY_TOL_SAMPLED)
    report = ClassificationReport()
    report.orientation = (
        "parametric: U = sigma_u x sigma_v normalized"
        if c.kind == "parametric"
        else "implicit: U = grad f / |grad f|"
    )

    scale = 1.0 + float(np.max(data.kappa))
    flag_tol = FLAG_TOL * scale
    report.flags = {
        "geodesic": _flag(np.max(np.abs(data.kg)), flag_tol),
        "asymptotic": _flag(np.max(np.abs(data.kn)), flag_tol),
        "line_of_curvature": _flag(np.max(np.abs(data.tg)), flag_tol),
    }

    for key in ("kg", "kn", "tg"):
        report.series[key] = _series_payload(
            CharacterizationSeries(data.s, getattr(data, key), np.ones(data.n, bool), key), s)

    def attempt(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DarbouxError as exc:
            report.verdicts[name] = {"error": str(exc)}
            return None

    # constancy measures
    for fam in _FAMILIES:
        measure = attempt(fam.verdict, _pair_measure, data, fam)
        if measure is not None:
            report.series[fam.measure] = _series_payload(measure, s)
            report.verdicts[fam.verdict] = _verdict(measure, tol_const)

    # exponential-integral characterizations, one family at a time
    for fam in _FAMILIES:
        tf = attempt(fam.position, theorem_functions, data, c_const=c_const, family=fam.which)
        if tf is not None:
            for name in (fam.criterion, *fam.coefficients):
                report.series[name] = _series_payload(getattr(tf, name), s)
            report.verdicts[fam.position] = _verdict(getattr(tf, fam.criterion), tol_const)

    # position decomposition and plane membership
    decomp = position_decomposition(data)
    for series in (decomp.dot_T, decomp.dot_V, decomp.dot_U):
        report.series[series.name] = _series_payload(series, s)
    for fam in _FAMILIES:
        report.flags[fam.in_plane] = _flag(
            float(np.max(np.abs(getattr(decomp, fam.off_plane).values))), decomp.plane_tol)
        res = attempt(fam.residual, position_theorem_residual, data, which=fam.which)
        if res is not None:
            report.series[res.name] = _series_payload(res, s)

    # Frenet-level checks
    frenet_ok = bool(data.frenet_mask.all())
    if frenet_ok:
        slant = attempt("slant_helix", slant_series_from_scalars, data.s, data.kappa, data.tau)
        if slant is not None:
            slant.mask = _edge_mask(data.n, not data.analytic)
            report.series["slant_helix"] = _series_payload(slant, s)
            report.verdicts["slant_helix"] = _verdict(slant, tol_const)
        rect = attempt("rectifying", rectifying_from_scalars, data.s, data.kappa, data.tau,
                       tol=tol_const)
        if rect is not None:
            report.verdicts["rectifying"] = {
                "is_rectifying": rect.is_rectifying,
                "slope": rect.slope,
                "intercept": rect.intercept,
                "fit_residual": rect.fit_residual,
                "tol": tol_const,
            }
    else:
        msg = "Frenet frame undefined somewhere on the grid (kappa below threshold)"
        report.verdicts["slant_helix"] = {"error": msg}
        report.verdicts["rectifying"] = {"error": msg}

    # axis estimates from the V and U series
    report.axes["V_axis"] = recover_axis(data.V).as_dict()
    report.axes["U_axis"] = recover_axis(data.U).as_dict()

    report.verdicts["cross_checks"] = _cross_checks(
        report, data, decomp, tol_const, frenet_ok)

    report.tolerances = {
        "constancy": tol_const,
        "plane": decomp.plane_tol,
        "flag": flag_tol,
        "eps_pair": EPS_PAIR,
        "eps_kappa": EPS_KAPPA,
        "analytic_input": data.analytic,
    }
    return report


def _flag(max_abs: float, tol: float) -> dict:
    return {"value": bool(max_abs <= tol), "max_abs": float(max_abs), "tol": float(tol)}


def _verdict(series: CharacterizationSeries, tol: float) -> dict:
    try:
        return is_constant(series, tol).as_dict()
    except InsufficientSamplesError as exc:
        return {"error": str(exc)}


def _cross_checks(report, data: FrameData, decomp, tol_const, frenet_ok) -> list:
    """Corollary-style consistency notes, evaluated only when the combined
    hypotheses hold: a line-of-curvature check is consistent when its
    detail is constant, a Frenet-shape check when the detail's verdict
    agrees with the family measure's."""

    def verdict_true(name):
        v = report.verdicts.get(name)
        return bool(v and v.get("is_constant"))

    def check(name, hypotheses, values, measure_verdict=None):
        item = {"name": name, "hypotheses_met": bool(hypotheses)}
        if item["hypotheses_met"]:
            series = CharacterizationSeries(data.s, values, np.ones(data.n, dtype=bool), name)
            item["detail"] = is_constant(series, tol_const).as_dict()
            constant = item["detail"]["is_constant"]
            item["consistent"] = (constant if measure_verdict is None
                                  else constant == verdict_true(measure_verdict))
        return item

    loc = report.flags["line_of_curvature"]["value"]
    checks = [check(fam.loc_check,
                    loc and getattr(decomp, fam.in_plane) and verdict_true(fam.verdict),
                    getattr(data, fam.a)) for fam in _FAMILIES]
    if frenet_ok:
        shape = data.kappa**2 / _pow(data.kappa**2 + data.tau**2, 1.5, math.inf)
        checks += [check(fam.shape_check,
                         report.flags[fam.shape_flag]["value"] and getattr(decomp, fam.in_plane)
                         and "is_constant" in report.verdicts.get(fam.verdict, {}),
                         shape, fam.verdict) for fam in _FAMILIES]
    return checks
