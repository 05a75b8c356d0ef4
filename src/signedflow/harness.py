"""Experiment orchestration: configs, convergence sweeps, exponent fits and
the quartic-well envelope construction.

Particle initial data comes from a signed density via quantile placement:
each sign s gets round(n * mass_s) particles at the (i - 1/2)/n_s quantiles
of its normalized component, interleaved by position, which makes the
cumulative charge converge uniformly to the density's primitive.

Fixed numerics are module constants: the envelope touches phi within
TOUCH_TOL max(1, max|phi|) and bisects K up to K_CAP; the exponent fit drops
the DROP_DECADES decades nearest the collision, fits the next FIT_DECADES and
bootstraps N_BOOT resamples drawn with BOOT_SEED.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import IntegratorOptions, ParticleState, simulate
from .errors import DataError
from .pde import (GridFunction, _cumulative_trapezoid, solve_local,
                  solve_nonlocal)
from .potentials import (ScalingRegime, audit_assumptions, make_field,
                         make_potential)
from .staircase import cumulative_charge, sup_distance

__all__ = [
    "ExperimentConfig",
    "SignedDensity",
    "WellEnvelope",
    "quartic_envelope",
    "quantile_particles",
    "run_convergence",
    "solve_limit_equation",
    "ExponentFit",
    "fit_exponent_from_series",
    "fit_collision_exponent",
]


# ---------------------------------------------------------------------------
# signed densities and particle placement
# ---------------------------------------------------------------------------

def _bump(x):
    """Smooth compactly supported unit-mass bump on [-1, 1]."""
    return np.where(np.abs(x) < 1.0, 15.0 / 16.0 * (1.0 - x ** 2) ** 2, 0.0)


@dataclass(frozen=True)
class SignedDensity:
    """Sum of signed bump components (sign, mass, center, width)."""

    components: tuple

    @staticmethod
    def from_spec(spec) -> "SignedDensity":
        comps = []
        for c in spec:
            s = int(c["sign"])
            if s not in (-1, 1):
                raise DataError("component sign must be +-1")
            comp = (s, float(c["mass"]), float(c["center"]),
                    float(c.get("width", 1.0)))
            if not (all(map(math.isfinite, comp)) and comp[3] > 0):
                raise DataError(f"component mass and center must be finite and "
                                f"width finite and positive, got {comp[1:]}")
            comps.append(comp)
        return SignedDensity(tuple(comps))

    def mass(self, sign: int) -> float:
        return sum(m for s, m, _, _ in self.components if s == sign)

    def part(self, sign: int, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for s, m, c, w in self.components:
            if s == sign:
                out += m / w * _bump((x - c) / w)
        return out

    def __call__(self, x):
        return self.part(1, x) - self.part(-1, x)

    def support(self):
        lo = min(c - w for _, _, c, w in self.components)
        hi = max(c + w for _, _, c, w in self.components)
        return lo, hi

    def primitive(self, x):
        """int_-inf^x of the signed density, by fine-grid quadrature."""
        lo, hi = self.support()
        xf = np.linspace(lo, hi, 80001)
        cum = _cumulative_trapezoid(self(xf), xf)
        return np.interp(np.asarray(x, dtype=float), xf, cum,
                         left=0.0, right=float(cum[-1]))


def quantile_particles(density: SignedDensity, n: int) -> ParticleState:
    """Place round(n * mass) particles per sign at mid-quantiles, interleaved."""
    lo, hi = density.support()
    xf = np.linspace(lo, hi, 80001)
    xs_all, bs_all = [], []
    for sign in (1, -1):
        n_s = int(round(n * density.mass(sign)))
        if n_s == 0:
            continue
        cum = _cumulative_trapezoid(density.part(sign, xf), xf)
        q = (np.arange(n_s) + 0.5) / n_s * cum[-1]
        xs_all.append(np.interp(q, cum, xf))
        bs_all.append(sign * np.ones(n_s, dtype=int))
    if not xs_all:
        raise DataError(f"n = {n} places no particle: round(n * mass) is 0 for "
                        f"masses {density.mass(1)!r} (+) and {density.mass(-1)!r} (-)")
    xs = np.concatenate(xs_all)
    bs = np.concatenate(bs_all)
    order = np.argsort(xs, kind="stable")
    xs, bs = xs[order], bs[order]
    # opposite-sign components may place both charges on the same quantile
    # point; spread coincident positions by a deterministic hair (they
    # annihilate immediately, as the cancelling densities do)
    sep = 1e-7 * (hi - lo)
    k = 0
    while k < len(xs) - 1:
        j = k
        while j < len(xs) - 1 and xs[j + 1] - xs[k] < sep * (j + 1 - k):
            j += 1
        if j > k:
            xs[k:j + 1] = xs[k] + sep * np.arange(j + 1 - k)
            k = j
        k += 1
    st = ParticleState(0.0, xs, bs)
    st.validate()
    return st


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    potential: dict
    regime: dict
    field: dict | None = None
    initial: dict | None = None
    n_list: list = dc_field(default_factory=lambda: [25, 50, 100, 200])
    t_end: float = 0.2
    snapshot_times: list = dc_field(default_factory=lambda: [0.1, 0.2])
    grid: dict = dc_field(default_factory=lambda: {
        "half_width": 2.5, "nodes": 512, "rho": 0.5})
    tolerances: dict = dc_field(default_factory=lambda: {
        "conv_tol": 0.05, "slack": 1.1, "rk_tol": 1e-9, "quad_tol": 1e-9})
    window_margin_cells: int = 3
    seed: int = 0

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise DataError(f"unknown config keys: {sorted(extra)}")
        cfg = ExperimentConfig(**d)
        cfg.validate()
        return cfg

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def validate(self):
        if "kind" not in self.potential:
            raise DataError("potential spec needs a 'kind'")
        if self.regime.get("m") not in (1, 2, 3):
            raise DataError("regime m must be 1, 2 or 3")
        missing = [k for k in ("conv_tol", "slack", "rk_tol", "quad_tol")
                   if k not in self.tolerances]
        if missing:
            raise DataError(f"tolerances lack {', '.join(missing)}")
        for key, val in {**self.tolerances, "t_end": self.t_end}.items():
            if not (math.isfinite(val) and val > 0):
                raise DataError(f"'{key}' must be finite and positive, got {val}")
        # a convergence check over no particle count or no time compares
        # nothing, and would pass
        if not self.n_list:
            raise DataError("n_list must not be empty")
        if not self.snapshot_times:
            raise DataError("snapshot_times must not be empty")
        if any(t > self.t_end for t in self.snapshot_times):
            raise DataError("snapshot times must not exceed t_end")
        nodes = self.grid.get("nodes")
        if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 2:
            raise DataError(f"grid nodes must be an integer >= 2, got {nodes!r}")

    def config_hash(self) -> str:
        blob = json.dumps(self.__dict__, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def build(self):
        """(potential, regime, field); the field is None when there is none."""
        pot = make_potential(self.potential)
        reg = ScalingRegime(m=self.regime["m"],
                            alpha=self.regime.get("alpha", 1.0),
                            beta=self.regime.get("beta", 1.0))
        no_field = self.field is None or self.field.get("kind", "none") == "none"
        fld = None if no_field else make_field(self.field)
        return pot, reg, fld

    def density(self) -> SignedDensity:
        if self.initial is None or self.initial.get("kind") != "density":
            raise DataError("config has no density-type initial data")
        return SignedDensity.from_spec(self.initial["components"])

    def particles(self) -> ParticleState:
        if self.initial is None:
            raise DataError("config has no initial data")
        if self.initial.get("kind") == "particles":
            return ParticleState(0.0, np.asarray(self.initial["x"], dtype=float),
                                 np.asarray(self.initial["b"], dtype=int))
        raise DataError("initial data is not an explicit particle list")


# ---------------------------------------------------------------------------
# quartic-well envelope
# ---------------------------------------------------------------------------

TOUCH_TOL = 1e-8       # touch tolerance, relative to max(1, max|phi|)
K_CAP = 1e8            # the bisection of the least feasible K stops here
_ENV_BLOCK = 65_536
# centers per block: a block's columns span the bands of all its
# centers, so fewer rows evaluate fewer wells outside any band
_ENV_ROWS = 64


@dataclass
class WellEnvelope:
    """Envelope of translated quartics majorizing sampled data.

    ``centers[k]`` is the arg-min center y0 of the quartic
    ``K (x - y0)^4 + c(y0)`` that attains ``env`` at ``xs[k]``: the bottom
    of the well that wraps the envelope there.
    """

    K: float
    xs: np.ndarray
    phi: np.ndarray
    env: np.ndarray
    touched: np.ndarray        # env meets phi at these samples
    centers: np.ndarray        # arg-min quartic center at each sample
    min_feasible_K: float | None = None
    sweeps: int = 1            # envelope sweeps made, K's bisection included
    wells: int = 0             # (center, sample) wells evaluated, all sweeps

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.touched))

    def check_well_property(self, tol: float = 1e-9) -> bool:
        """env(xb + x) - env(xb) <= K((x - x0)^4 - x0^4) for all samples xb
        and xb + x, where x0 = centers[k] - xb is the offset of the arg-min
        center that built the well at xb = xs[k].

        Where env is differentiable this x0 solves x0^3 = -env'(xb) / (4K);
        at kinks it is still a valid witness.  The inequality holds by
        construction up to rounding, so ``tol`` need not absorb any
        discretization error.
        """
        for xb, y0, eb in zip(self.xs, self.centers, self.env):
            x0 = y0 - xb
            lhs = self.env - eb
            rhs = self.K * (np.abs((self.xs - xb) - x0) ** 4 - x0 ** 4)
            if np.any(lhs > rhs + tol):
                return False
        return True


def _env_blocks(xs, phi, K):
    """Candidate centers y0 and the sweep's blocks (r0, r1, c0, c1): the
    centers y0[r0:r1] against the samples xs[c0:c1].

    Candidate centers extend past the window: a touch at slope p needs the
    center offset (|p| / 4K)^(1/3) beyond the touch point.  A well deeper
    than osc, the oscillation of phi, loses, so a center's c(y0) is attained
    within ``band`` samples of the center (of the grid's end, for a pad
    center), and env(x_i) only by centers within ``band`` samples of x_i
    (pad centers near the ends).  ``band`` exceeds r = (osc / K)^(1/4) by
    two samples, and osc carries an allowance of 2^-40 max|phi|, so every
    excluded well loses by far more than rounding and none ties.  A block's
    columns span the bands of its centers.
    """
    n = len(xs)
    dx = xs[1] - xs[0]
    slope_max = float(np.max(np.abs(np.diff(phi)))) / dx
    pad = 1.5 * (slope_max / (4.0 * K)) ** (1.0 / 3.0) + 2.0 * dx
    n_pad = int(np.ceil(pad / dx))
    left = xs[0] - dx * np.arange(n_pad, 0, -1)
    right = xs[-1] + dx * np.arange(1, n_pad + 1)
    y0 = np.concatenate([left, xs, right])
    hi, lo = float(np.max(phi)), float(np.min(phi))
    osc = hi - lo + 2.0 ** -40 * max(abs(hi), abs(lo))
    band = int(min(np.ceil((osc / K) ** 0.25 / dx) + 2, n))
    rows = max(1, min(_ENV_ROWS, _ENV_BLOCK // n))
    blocks = []
    for r0 in range(0, len(y0), rows):
        r1 = min(r0 + rows, len(y0))
        # a pad center's band starts at the grid's end
        c0 = max(min(r0 - n_pad, n - 1) - band, 0)
        c1 = min(max(r1 - 1 - n_pad, 0) + band + 1, n)
        blocks.append((r0, r1, c0, c1))
    return y0, blocks


def _quartic_env_values(xs, phi, K):
    # c(y0) = max_z (phi(z) - K (z - y0)^4); env(x) = min_y0 K(x-y0)^4 + c(y0).
    # Returns env, per sample the center attaining the minimum, and the
    # count of (center, sample) wells evaluated.
    # Each block of centers meets only the samples of its band (_env_blocks),
    # its temporaries in cache; a later block takes a column only where it is
    # strictly lower, so env and the first arg-min center match one dense
    # sweep
    y0, blocks = _env_blocks(xs, phi, K)
    env = np.full(len(xs), np.inf)
    best = np.zeros(len(xs), dtype=np.intp)
    buf = np.empty(_ENV_BLOCK)
    wells = 0
    for r0, r1, c0, c1 in blocks:
        wells += (r1 - r0) * (c1 - c0)
        w = buf[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
        # K |x - y0|^4 in place: numpy's ** on the negative offsets is tens
        # of times slower than on their absolute values
        np.subtract(xs[None, c0:c1], y0[r0:r1, None], out=w)
        np.abs(w, out=w)
        w **= 4
        w *= K
        c = np.max(phi[None, c0:c1] - w, axis=1)
        w += c[:, None]
        arg = np.argmin(w, axis=0)
        low = w[arg, np.arange(c1 - c0)]
        lower = low < env[c0:c1]
        env[c0:c1][lower] = low[lower]
        best[c0:c1][lower] = r0 + arg[lower]
    return env, y0[best], wells


def quartic_envelope(xs, phi, K: float) -> WellEnvelope:
    """Pointwise infimum of translated quartics K(x - y0)^4 + c majorizing
    the samples; the result has quartic wells with constant K by construction.

    Where the envelope cannot touch (curvature spike exceeding what K can
    wrap), the minimal feasible K on this grid, at most K_CAP, is bisected
    and reported.  Each sweep meets a block of candidate centers only with
    the samples of their bands, which narrow as K grows; ``sweeps`` and
    ``wells`` count the work.
    """
    xs = np.asarray(xs, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if len(xs) != len(phi) or len(xs) < 8:
        raise DataError("need matching sample arrays of length >= 8")
    if len(xs) > 4096:
        raise DataError("grid too large for the envelope sweep: at most "
                        "4096 samples")
    if not (math.isfinite(K) and K > 0):
        raise DataError("K must be finite and positive")
    # the sweep pads the grid with the spacing xs[1] - xs[0]
    steps = np.diff(xs)
    if not (steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-9, atol=0)):
        raise DataError("xs must be strictly increasing and evenly spaced")
    if not np.all(np.isfinite(phi)):
        raise DataError("phi must be finite")
    scale = max(1.0, float(np.max(np.abs(phi))))
    sweeps = wells = 0

    def sweep(k):
        """(env, centers, touched) at k, counted in sweeps and wells."""
        nonlocal sweeps, wells
        env, centers, n_wells = _quartic_env_values(xs, phi, k)
        sweeps += 1
        wells += n_wells
        return env, centers, env <= phi + TOUCH_TOL * scale

    env, centers, touched = sweep(K)
    min_k = None
    if not np.all(touched):
        lo, hi = K, K
        while hi < K_CAP:
            hi *= 4.0
            if np.all(sweep(hi)[2]):
                break
        else:
            raise DataError("no feasible K below the bisection cap")
        for _ in range(48):
            mid = math.sqrt(lo * hi)
            if np.all(sweep(mid)[2]):
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.001:
                break
        min_k = hi
    return WellEnvelope(K, xs, phi, env, touched, centers, min_k, sweeps,
                        wells)


# ---------------------------------------------------------------------------
# convergence experiment
# ---------------------------------------------------------------------------

def solve_limit_equation(cfg: ExperimentConfig, m: int | None = None,
                         t_eval=None):
    """Solve the config's limit equation from its density primitive.

    The grid is ``cfg.grid``; ``m`` defaults to the config's regime, and
    m = 1 selects the nonlocal solver.  Returns (GridFunction, SolveInfo).
    Raises DataError when the density's support leaves the grid: the end
    values are held fixed, so the solve could not carry that mass.
    """
    pot, reg, fld = cfg.build()
    m = reg.m if m is None else m
    dens = cfg.density()
    half = float(cfg.grid["half_width"])
    xs = np.linspace(-half, half, int(cfg.grid["nodes"]))
    u0 = GridFunction(-half, xs[1] - xs[0], dens.primitive(xs),
                      0.0, float(dens.primitive(np.array([half + 1.0]))[0]))
    if not u0.check_farfield():
        lo, hi = dens.support()
        raise DataError(f"density support [{lo:g}, {hi:g}] does not fit the "
                        f"grid [{-half:g}, {half:g}]; widen grid.half_width")
    if m == 1:
        return solve_nonlocal(u0, pot, reg.alpha, fld, cfg.t_end,
                              rho=float(cfg.grid.get("rho", 0.5)),
                              quad_tol=cfg.tolerances["quad_tol"],
                              t_eval=t_eval)
    return solve_local(u0, m, pot, reg.beta, fld, cfg.t_end, t_eval=t_eval)


def run_convergence(cfg: ExperimentConfig) -> dict:
    """Simulate each n, solve the limit equation once, and compare the
    cumulative charge staircases with the grid solution in sup norm.

    The report contains (n, t, distance) rows and pass/fail flags:
    distances must be nonincreasing in n up to the configured slack, with
    the final distance below conv_tol, and every charged particle of every
    snapshot must lie inside the comparison window.  ``stats`` holds each
    run's ``SimulationResult.stats`` with its n and event count.
    """
    pot, reg, fld = cfg.build()
    dens = cfg.density()
    tol = cfg.tolerances
    sol, info = solve_limit_equation(cfg, t_eval=cfg.snapshot_times)
    half = float(cfg.grid["half_width"])
    margin = cfg.window_margin_cells * sol.dx
    window = (-half + margin, half - margin)
    opts = IntegratorOptions(rk_tol=tol["rk_tol"])

    rows = []
    stats = []
    events_total = 0
    passed = True
    notes = []
    for n in cfg.n_list:
        st0 = quantile_particles(dens, int(n))
        res = simulate(st0, pot, reg.alpha_of(int(n)), fld,
                       cfg.t_end, opts, t_eval=cfg.snapshot_times)
        events_total += len(res.events)
        stats.append({"n": int(n), "events": len(res.events), **res.stats})
        for (tk, uv), snap in zip(info.snapshots, res.snapshots):
            g = GridFunction(sol.x0, sol.dx, uv, sol.far_left, sol.far_right)
            d = sup_distance(cumulative_charge(snap), g, window)
            rows.append({"n": int(n), "t": float(tk), "distance": float(d)})
            xc = np.asarray(snap.x)[np.asarray(snap.b) != 0]
            outside = int(np.count_nonzero((xc < window[0]) | (xc > window[1])))
            if outside:
                passed = False
                notes.append(f"n={n}, t={tk:g}: {outside} charged particles "
                             f"outside the comparison window "
                             f"[{window[0]:.4g}, {window[1]:.4g}]")

    slack = tol["slack"]
    for tk in cfg.snapshot_times:
        col = [r["distance"] for r in rows if r["t"] == tk]
        for a, b in zip(col[:-1], col[1:]):
            if b > slack * a:
                passed = False
                notes.append(f"distance not decreasing at t={tk}: {a:.4g} -> {b:.4g}")
        if col[-1] > tol["conv_tol"]:
            passed = False
            notes.append(f"final distance {col[-1]:.4g} above {tol['conv_tol']}")

    profile = f"hj{reg.m}"
    return {
        "config_hash": cfg.config_hash(),
        "compliance": json.loads(audit_assumptions(pot, profile).to_json()),
        "rows": rows,
        "events_total": events_total,
        "stats": stats,
        "passed": passed,
        "notes": notes,
    }


def convergence_csv(report: dict) -> str:
    lines = ["n,t,distance"]
    lines += [f"{r['n']},{r['t']!r},{r['distance']!r}" for r in report["rows"]]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# collision-exponent fits
# ---------------------------------------------------------------------------

DROP_DECADES = 1.0     # decades of time-to-collision nearest tau, dropped
FIT_DECADES = 2.0      # decades fitted after them
N_BOOT = 200           # bootstrap resamples of the confidence interval
BOOT_SEED = 0


@dataclass
class ExponentFit:
    slope: float
    ci_low: float
    ci_high: float
    n_points: int
    window_decades: tuple

    def to_dict(self):
        return self.__dict__.copy()


def fit_exponent_from_series(times, gaps, tau: float) -> ExponentFit:
    """Log-log slope of the gap against time-to-collision.

    The DROP_DECADES closest to tau are dropped (event-location error
    dominates there); the fit uses the next FIT_DECADES.  Bootstrap
    resampling gives the confidence interval.
    """
    times = np.asarray(times, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    s = tau - times
    keep = (s > 0) & np.isfinite(gaps) & (gaps > 0)
    s, g = s[keep], gaps[keep]
    if len(s) < 8:
        raise DataError("not enough gap samples before the collision")
    ld = np.log10(s)
    lo = ld.min()
    end = DROP_DECADES + FIT_DECADES
    if ld.max() - lo < end:
        raise DataError(f"need {end:.1f} decades of time-to-collision data, "
                        f"have {ld.max() - lo:.2f}")
    win = (ld >= lo + DROP_DECADES) & (ld <= lo + end)
    if np.count_nonzero(win) < 6:
        raise DataError("fit window holds fewer than 6 samples")
    lx, ly = np.log(s[win]), np.log(g[win])
    slope = float(np.polyfit(lx, ly, 1)[0])
    rng = np.random.default_rng(BOOT_SEED)
    boots = []
    idx = np.arange(len(lx))
    for _ in range(N_BOOT):
        pick = rng.choice(idx, size=len(idx), replace=True)
        if len(np.unique(lx[pick])) < 2:
            continue
        boots.append(np.polyfit(lx[pick], ly[pick], 1)[0])
    lo_ci, hi_ci = (np.percentile(boots, [2.5, 97.5]) if boots
                    else (slope, slope))
    return ExponentFit(slope, float(lo_ci), float(hi_ci),
                       int(np.count_nonzero(win)), (DROP_DECADES, end))


def fit_collision_exponent(result) -> ExponentFit:
    """Fit the shrinking-gap exponent from a simulation's diagnostics.

    Uses the recorded minimal opposite-sign gap before the first event:
    close to the collision that gap belongs to the collapsing pair.
    """
    events = result.events.events
    if not events:
        raise DataError("simulation recorded no collision events")
    tau = events[0].tau
    d = result.diagnostics
    times = np.asarray(d.t)
    gaps = np.asarray(d.min_opposite_gap)
    keep = times < tau
    return fit_exponent_from_series(times[keep], gaps[keep], tau)
