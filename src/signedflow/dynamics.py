"""Signed-particle dynamics with annihilation upon collision.

n particles on the line carry charges b_i in {-1, 0, +1} and move by

    dx_i/dt = (1/n) sum_{j != i} b_i b_j f(x_i - x_j) + b_i g(x_i),

with pair force f = -V_alpha' and external force g = -U'.  Neutral particles
(b_i = 0) are stationary and exert no force.  When neighbors of opposite sign
meet, one rule (``_annihilate_cluster``) resolves each colliding cluster in
spatial order: its charges alternate, its leftmost 2 floor(k/2) members become
neutral, all are pinned at the collision point, and a survivor is the rightmost.

Between events the trajectory is advanced by an embedded Runge-Kutta pair,
chosen per segment (the stretch between two events): the Dormand-Prince 5(4)
pair while the segment holds an opposite-sign neighbour pair, which may
collide and whose steps are set by accuracy, and the Bogacki-Shampine 3(2)
pair on a single-sign segment, whose steps are set by the stiffness of the
repulsion, where the lower order costs fewer evaluations.  Both are
first-same-as-last and run through one attempt function, ``_rk_attempt``.
Each commit sets the next step once: 0.9 err^(-1/q) times the last one,
clipped to [0.2, 5] (err the last error norm, q the order of the pair's
error estimate plus one), scaled by the time to contact near a collision, as
below, then clipped to the gap cap, the next snapshot time and ``t_end``,
and kept above 1e-16 max(1, |t|); a proposal below that floor raises
StiffnessError, as the run would only move t by round-off.  A rejection only
shrinks the step, by the same factor, to no less than H_MIN and that floor;
a rejection at that size raises StiffnessError.

Close to a collision the shrinking gap d of an opposite pair follows
d^(2+a) affine in t (a = singularity exponent of the force).  The fit of
d^(2+a) through the last two commits gives each closing pair its time to
contact, d^(2+a) over the rate at which it shrinks.  GAP_FACTOR times the
least of them, t_c, caps the next step; a segment's first step, before
there is a rate, is capped at GAP_FACTOR d^(2+a).  Near the contact the
positions move as t_c^(1/p), p = 2 + a, so their q-th derivative, and with
it the error of a step of size h, grows as h^q t_c^(1/p - q): the step that
keeps err at 1 shrinks as t_c^(1 - 1/(p q)).  When t_c shrinks from one
commit to the next, the controller's proposal is multiplied by
(t_c / t_c_prev)^(1 - 1/(p q)), so it follows the contact down rather than
overshoot and be rejected.  Once a closing pair's gap is under the trigger
radius, or its cap under H_COLLISION_FLOOR, its extrapolated contact time is
the collision time (``_event_radii``).

For potentials with exponential tails (``tail_class == "exponential"``) the
pair sweep of ``simulate`` is banded: it keeps the pairs of charged
particles at most w slots apart in spatial order, and w is chosen so that
every dropped pair lies beyond a cutoff radius r.  r is found once per run
from the envelopes of |V'| and |V| (``_band_cutoff``): the force dropped
from any particle stays below 1e-3 rk_tol, and so does the energy dropped
over all pairs.  A margin (the "skin" of a Verlet neighbour list) lets the
band serve every stage point within half the skin of where it was built;
``_Segment`` checks each point and builds the band again when one is
farther.  Power and log tails, and runs whose charged span is within the
cutoff plus the skin, sweep every pair, as ``velocities`` and ``energy``
always do.

The pair list runs one offset at a time, all (i, i + 1), then all
(i, i + 2), and so on, so a band is a prefix of the list of every pair.  The
force sweep forms d = x_j - x_i, i < j, which is positive at an ordered
point, and weighs each pair by alpha^2 b_i b_j V'(alpha d).  A chunk whose d
are all positive evaluates V' at d; any other chunk, at a stage point that
is not ordered, evaluates at |d| and multiplies by sign(d).  That sign is
exactly 1 at an ordered point, so both forms give it the same bits.

Each committed step (the start of a segment between events, and every
accepted step) yields one diagnostics row.  The integrator only buffers the
positions and neighbor gaps of a commit; the rows are computed a block at a
time, when the buffer is full and when the segment ends, before its event is
applied, so they keep their order.

``IntegratorOptions`` holds the one step-control value a caller may tune,
``rk_tol``.  The rest are fixed module constants: the first step of a
segment H_INIT, the least step H_MIN, the step ceiling and event radii
GAP_FACTOR, COLLISION_RADIUS, CLUSTER_FACTOR and H_COLLISION_FLOOR, with
SPACING_TOL checked after each event and MAX_STEPS bounding the attempts of
a run.  ``stability_experiment`` compares the runs at COMPARE_TIMES evenly
spaced times.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvariantViolationError, SingularConfigurationError,
                     StiffnessError)
from .potentials import ExternalField, Potential, zero_field

__all__ = [
    "ParticleState",
    "CollisionEvent",
    "EventLog",
    "Diagnostics",
    "IntegratorOptions",
    "SimulationResult",
    "velocities",
    "energy",
    "annihilate",
    "detect_collision",
    "simulate",
    "stability_experiment",
]


# ---------------------------------------------------------------------------
# State, events, diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticleState:
    """Time-stamped configuration (x, b); charged particles strictly ordered."""

    t: float
    x: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).copy())
        b = np.asarray(self.b)
        # the cast truncates: charges not of integer dtype are checked first
        if b.dtype.kind not in "biu" and not np.all(np.isin(b, (-1, 0, 1))):
            raise ValueError("charges must be whole numbers in {-1, 0, +1}")
        object.__setattr__(self, "b", b.astype(np.int64))
        if self.x.shape != self.b.shape:
            raise ValueError("x and b must have equal length")
        if not np.all((self.b >= -1) & (self.b <= 1)):
            raise ValueError("charges must lie in {-1, 0, +1}")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def charged_indices(self) -> np.ndarray:
        return np.flatnonzero(self.b != 0)

    @property
    def net_charge(self) -> int:
        return int(np.sum(self.b))

    def validate(self) -> None:
        """Membership in the ordered state space: charged positions increase."""
        xc = self.x[self.charged_indices]
        if len(xc) > 1 and not np.all(np.diff(xc) > 0):
            raise ValueError("charged particles must be strictly ordered")

    def neighbor_gaps(self):
        """(gaps, left charge, right charge) over consecutive charged pairs."""
        idx = self.charged_indices
        if len(idx) < 2:
            return (np.empty(0), np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        xc, bc = self.x[idx], self.b[idx]
        return np.diff(xc), bc[:-1], bc[1:]

    def min_gaps(self):
        """(d_plus, d_minus, min opposite-sign gap); inf when absent."""
        gaps, bl, br = self.neighbor_gaps()
        return tuple(_min_gaps(gaps[None], _gap_classes(bl, br))[0].tolist())


def _gap_classes(bl, br):
    """Rows marking the d_plus, d_minus and opposite-sign neighbor slots,
    given the left and right charges of each consecutive charged pair."""
    return np.stack([(bl > 0) & (br > 0), (bl < 0) & (br < 0), bl * br < 0])


def _min_gaps(gaps, classes):
    """Minimum gap of each row of the (rows, m-1) block ``gaps`` over each row
    of ``classes``, as a (rows, 3) array; inf where a class is empty."""
    masked = np.where(classes, gaps[:, None, :], np.inf)
    return np.minimum.reduce(masked, axis=2, initial=np.inf)


@dataclass(frozen=True)
class CollisionEvent:
    tau: float
    y: float
    indices: tuple
    b_before: tuple
    b_after: tuple

    def to_dict(self):
        return {"tau": self.tau, "y": self.y, "indices": list(self.indices),
                "b_before": list(self.b_before), "b_after": list(self.b_after)}


@dataclass
class EventLog:
    events: list = field(default_factory=list)

    def append(self, ev: CollisionEvent):
        self.events.append(ev)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(ev.to_dict()) for ev in self.events)


@dataclass
class Diagnostics:
    """One row per committed step: times, minimal gaps, first moment, energy.

    ``simulate`` fills the rows in blocks (see ``_Segment.flush``); the lists
    are complete once it returns.
    """

    t: list = field(default_factory=list)
    d_plus: list = field(default_factory=list)
    d_minus: list = field(default_factory=list)
    min_opposite_gap: list = field(default_factory=list)
    m1: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    n_charged: list = field(default_factory=list)

    def arrays(self) -> dict:
        return {k: np.asarray(v) for k, v in self.__dict__.items()}


# fixed event and step-ceiling parameters of ``simulate``
GAP_FACTOR = 0.5            # step ceiling h <= GAP_FACTOR * time to contact
COLLISION_RADIUS = 1e-5     # smallest trigger radius
CLUSTER_FACTOR = 8.0        # cluster radius = factor * trigger radius
H_COLLISION_FLOOR = 1e-13   # smallest gap-capped step before an event fires
SPACING_TOL = 1e-12         # least charged spacing after an event
MAX_STEPS = 2_000_000       # step attempts per run
H_INIT = 1e-4               # first step tried after the start and each event
H_MIN = 1e-14               # a rejected step this small raises StiffnessError
COMPARE_TIMES = 200         # times at which stability_experiment compares runs

# embedded pairs of ``simulate``: (stage rows, weights, error weights, q).
# Row s gives stage s + 1 from the stages before it; the weights give the
# step, and the error weights (solution minus embedded weights) the error
# estimate, whose last entry is for the first stage of the next step; q is
# the order of the error estimate plus one.
_BS3 = ([np.array([0.5]), np.array([0.0, 0.75])],
        np.array([2 / 9, 1 / 3, 4 / 9]),
        np.array([-5 / 72, 1 / 12, 1 / 9, -1 / 8]),
        3)
_DP5 = ([np.array([1 / 5]),
         np.array([3 / 40, 9 / 40]),
         np.array([44 / 45, -56 / 15, 32 / 9]),
         np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
         np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                   -5103 / 18656])],
        np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                  11 / 84]),
        np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40]),
        5)


@dataclass(frozen=True)
class IntegratorOptions:
    """Step control of ``simulate``: its one setting, ``rk_tol``, is the
    error tolerance of a step, relative to 1 + |x_i|.  The first step H_INIT,
    the least step H_MIN and the event and ceiling parameters GAP_FACTOR,
    COLLISION_RADIUS, CLUSTER_FACTOR, H_COLLISION_FLOOR, SPACING_TOL and
    MAX_STEPS are module constants.
    """

    rk_tol: float = 1e-9

    def __post_init__(self):
        if not self.rk_tol > 0:
            raise ValueError("rk_tol must be positive")


def _event_radii(exponent: float):
    """(trigger radius, cluster radius) of events at singularity exponent a.

    ``simulate`` caps a step at GAP_FACTOR t_c, with t_c = d^p / c the time
    to contact of a closing opposite pair, p = 2 + a and c the rate at which
    d^p shrinks, taken from the last two commits.  The trigger radius is
    max(COLLISION_RADIUS, r_time), with r_time = (H_COLLISION_FLOOR /
    GAP_FACTOR)^(1/p) the gap at which the cap falls to H_COLLISION_FLOOR
    at unit rate; it moves with GAP_FACTOR (2.35e-4 at a = 1.5 and
    GAP_FACTOR = 0.5) and exceeds COLLISION_RADIUS for strong singularities
    (large a).  A pair closing at c <= 1 has t_c >= d^p, so its cap stays
    at or above the floor while its gap is above the trigger radius.  A
    faster pair reaches the floor at the larger gap (c H_COLLISION_FLOOR /
    GAP_FACTOR)^(1/p), so ``_extrapolate_event`` also fires a pair once
    GAP_FACTOR t_c falls below H_COLLISION_FLOOR: whatever c is, no cap
    before the trigger is below the floor.
    """
    r_time = (H_COLLISION_FLOOR / GAP_FACTOR) ** (1.0 / (2.0 + exponent))
    r_trig = max(COLLISION_RADIUS, r_time)
    return r_trig, CLUSTER_FACTOR * r_trig


@dataclass
class SimulationResult:
    state: ParticleState
    events: EventLog
    diagnostics: Diagnostics
    snapshots: list            # states at requested t_eval times
    # step attempts accepted and rejected, right-hand-side evaluations, the
    # pairs those evaluations swept (pair_evals), the attempts whose step
    # the gap cap (gap_capped), the next snapshot time (snapshot_capped) or
    # t_end (end_capped) set, error control the rest, and the commits where
    # a shrinking time to contact shrank error control's proposal
    # (contact_scaled), and the chunk sweeps of the force kernel at points
    # that were not ordered (unordered_sweeps)
    stats: dict

    def trajectory_csv(self) -> str:
        n = self.snapshots[0].n if self.snapshots else self.state.n
        header = ",".join(["t"] + [f"x_{i}" for i in range(n)]
                          + [f"b_{i}" for i in range(n)])
        rows = [header]
        for s in self.snapshots:
            rows.append(",".join([repr(s.t)] + [repr(v) for v in s.x]
                                 + [str(int(v)) for v in s.b]))
        return "\n".join(rows)


# ---------------------------------------------------------------------------
# Forces and energy
# ---------------------------------------------------------------------------

def velocities(state: ParticleState, pot: Potential, alpha: float,
               field: ExternalField | None = None) -> np.ndarray:
    """Right-hand side of the ODE; zero for neutral particles.

    The pair sum visits each pair once, in a fixed order, so repeated
    evaluation is bitwise reproducible.  Positions need not be sorted;
    coincident charged particles raise SingularConfigurationError.
    """
    seg = _checked_segment(state, pot, alpha, field)
    vel = np.zeros(state.n)
    with np.errstate(**_KERNEL_ERRSTATE):
        vel[seg.idx] = seg.rhs(seg.xc)
    return vel


def energy(state: ParticleState, pot: Potential, alpha: float,
           field: ExternalField | None = None) -> float:
    """Interaction energy (1/n^2) sum_{i<j} b_i b_j V_alpha(|x_j - x_i|)
    plus (1/n) sum_i b_i U(x_i); the dynamics is its gradient flow.

    Positions need not be sorted: each pair is evaluated at its distance.
    """
    seg = _checked_segment(state, pot, alpha, field)
    return float(seg.energy(seg.xc[None])[0])


def _checked_segment(state, pot, alpha, field):
    """The segment of ``state``; coincident charged particles, where the
    pair force is undefined, raise SingularConfigurationError."""
    seg = _Segment(state.x, state.b, pot, alpha, field)
    # equal neighbours of a sorted copy: np.unique would import numpy.ma
    xs = np.sort(seg.xc)
    if np.any(xs[1:] == xs[:-1]):
        raise SingularConfigurationError(
            "coincident charged particles in force evaluation")
    return seg


# ---------------------------------------------------------------------------
# Annihilation
# ---------------------------------------------------------------------------

def annihilate(state: ParticleState, cluster, y: float) -> ParticleState:
    """The annihilation rule (``_annihilate_cluster``) on the particles
    ``cluster`` at ``y``, as a new state.  The cluster is taken in spatial
    order, ties by index: its charges must alternate, its leftmost
    2 floor(k/2) members become neutral, all are pinned at y, and a survivor
    is the rightmost member and continues from y."""
    x, b = state.x.copy(), state.b.copy()
    order = sorted((int(i) for i in cluster), key=lambda i: (x[i], i))
    _annihilate_cluster(x, b, order, y)
    return ParticleState(state.t, x, b)


def _annihilate_cluster(x, b, cluster, y):
    """The annihilation rule in place on positions x and charges b, for the
    indices ``cluster`` in spatial order meeting at y: InvariantViolationError
    for a neutral member or charges that do not alternate; else the leftmost
    2 floor(k/2) members become neutral, all are pinned at y, and a survivor
    is the rightmost.  Alternating charges sum to 0 or the survivor's, so
    the net charge is at most 1 in modulus and is conserved."""
    signs = b[cluster]
    if np.any(signs == 0):
        raise InvariantViolationError("neutral particle inside a collision cluster")
    if np.any(signs[:-1] * signs[1:] != -1):
        raise InvariantViolationError(
            f"non-alternating collision cluster {signs.tolist()}; integration bug")
    b[cluster[:2 * (len(cluster) // 2)]] = 0
    x[cluster] = y


# ---------------------------------------------------------------------------
# Collision detection
# ---------------------------------------------------------------------------

def detect_collision(state: ParticleState, prev_state: ParticleState,
                     exponent: float):
    """Extrapolated collision time and clusters once a gap is under threshold.

    The law d^(2+a)(t) affine in t is fitted through the gap samples of the
    two states (which must share the charge pattern); a non-shrinking fit
    means no collision.  Returns (tau, clusters) with clusters as lists of
    (global index, position) pairs, or None.
    """
    if not np.array_equal(state.b, prev_state.b):
        raise ValueError("states must share the charge pattern")
    idx = state.charged_indices
    bc = state.b[idx]
    opp = np.flatnonzero(bc[:-1] * bc[1:] < 0)
    if state.t <= prev_state.t or not len(opp):
        return None
    gaps = np.diff(state.x[idx])
    p = 2.0 + exponent
    with np.errstate(**_KERNEL_ERRSTATE):
        contact = _contact_times(gaps[opp] ** p,
                                 np.diff(prev_state.x[idx])[opp] ** p,
                                 state.t - prev_state.t)
    hit = _extrapolate_event(opp, idx, gaps, contact, state.t,
                             *_event_radii(exponent))
    if hit is None:
        return None
    tau, clusters = hit
    return tau, [[(i, float(state.x[i])) for i in c] for c in clusters]


# ---------------------------------------------------------------------------
# Time integration
# ---------------------------------------------------------------------------

# pairs per chunk of the pair sweep: each temporary stays near 64 KB, in
# cache and below the allocator's mmap threshold, so it is not faulted in
# again on every evaluation
_PAIR_CHUNK = 8192

# floats of positions and gaps a segment buffers before it computes their
# diagnostics rows in one block
_DIAG_BUFFER = 2048

# skin of the band, as a fraction of the cutoff radius
_SKIN = 0.25

# a band is built narrower only when it keeps at most this share of the pairs
# it replaces: rebuilding the pair list costs about half of one force sweep
# over it (0.15 against 0.32 ms at m = 300, w = 123), so a band that saves
# an eighth of each sweep pays for itself within about one step of three or
# four sweeps
_NARROW = 0.875

# coincident or crossing stage points make the evaluators return inf or nan;
# step control rejects such stages, so the kernel runs with these silenced
_KERNEL_ERRSTATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def _gaps(x):
    """Neighbor gaps x[k+1] - x[k], as np.diff computes them."""
    return x[1:] - x[:-1]


def _band_pairs(m, w):
    """Pairs (i, j) with i < j <= i + w of m particles, one offset at a time,
    as contiguous index arrays: all (i, i + 1), then all (i, i + 2), up to
    offset w <= m - 1, each offset in increasing i.  The list of band w is therefore a
    prefix of the list of every pair, w = m - 1.

    Within a chunk of the sweep consecutive pairs then add into different
    bins of ``np.bincount`` on both the i and the j side; row by row, up to
    w consecutive adds would go into the one bin of their i."""
    offsets = np.arange(1, w + 1)
    counts = m - offsets
    starts = np.cumsum(counts) - counts
    i = np.arange(int(counts.sum())) - np.repeat(starts, counts)
    return i, i + np.repeat(offsets, counts)


def _band_cutoff(pot, alpha, rk_tol):
    """Cutoff radius r = R / alpha of the banded pair sweep; inf when no pair
    may be dropped.

    Beyond distance r a pair adds at most alpha^2 E1(R) / n to a velocity and
    alpha E0(R) / n^2 to the energy, with Ek the decreasing envelope of
    |V^(k)| and n the particle count.  Dropping at most n pairs of a particle
    therefore moves its velocity by at most alpha^2 E1(R), and dropping at
    most n^2 / 2 pairs moves the energy by at most alpha E0(R) / 2, whatever
    n is.  R is the first point of a geometric grid (ratio 1.02) where both
    are at most 1e-3 rk_tol.
    """
    if pot.tail_class != "exponential" or not alpha > 0:
        return np.inf
    s = np.geomspace(1e-2, 1e4, 701)
    bound = 1e-3 * rk_tol
    ok = ((alpha ** 2 * pot.envelope(s, 1) <= bound)
          & (alpha * pot.envelope(s, 0) <= 2.0 * bound))
    k = np.flatnonzero(ok)
    return float(s[k[0]]) / alpha if len(k) else np.inf


class _Segment:
    """Charged subsystem between two events: fixed index set, fast kernels.

    Forces and energy sweep a list of pairs i < j, one offset j - i after
    another (``_band_pairs``), in fixed chunks of ``_PAIR_CHUNK``.  The
    evaluators are defined on (0, inf) only.  ``rhs`` forms d = x_j - x_i
    per chunk: when every d is positive it evaluates at d, otherwise, since
    stage points of the integrator need not be ordered, at |d| with the sign
    applied afterwards, and ``unordered_sweeps`` counts those chunk sweeps.
    ``energy`` always evaluates at |d|.  ``rhs`` runs under its caller's
    ``np.errstate(**_KERNEL_ERRSTATE)``.

    The pair list is every pair unless ``simulate`` gives a finite cutoff
    radius r (``_band_cutoff``).  While the charged span is within r plus
    the skin s = ``_SKIN`` r, the band would hold every pair, and each
    commit costs one comparison to check that.  Once the span is wider, the
    list is a band: the pairs j - i <= w of the charged particles in
    spatial order, with w from ``searchsorted`` on the committed
    positions ``ref`` at radius r + s.  A pair left out then has
    ref_j - ref_i > r + s.  At a point x with |x_k - ref_k| <= s / 2 for
    every k, stage points included, whether ordered or not, such a pair is
    |x_j - x_i| >= ref_j - ref_i - s > r apart, so the band holds every pair
    within r of each other at x.  ``rhs`` checks this bound at every point it
    is given and, when a point is farther, builds the band again at the last
    commit, with the skin widened to twice that point's distance from the
    commit if it is larger.  A narrower band replaces the list only when it
    keeps at most ``_NARROW`` of the pairs; a wider one always does.

    The neighbor gaps are computed once per step attempt, from the trial
    point, and shared: the ordering check, the gap cap, ``record`` and event
    extrapolation all read that one array.

    ``record`` only buffers a commit's (t, xc, gaps); ``flush`` turns the
    buffer into rows of ``diag`` with a few block calls of ``energy`` and
    ``_min_gaps``.  ``record`` flushes once the buffer holds ``_DIAG_BUFFER``
    floats, the band flushes before it changes the pair list, so that each
    row's energy sweeps the list that held it, and the caller flushes at the
    segment's end.
    """

    def __init__(self, x_full, b_full, pot, alpha, field, diag=None,
                 radius=np.inf):
        self.n = len(x_full)
        self.idx = np.flatnonzero(b_full != 0)
        self.m = len(self.idx)
        self.xc = x_full[self.idx].copy()
        self.bc = b_full[self.idx].astype(float)
        self.x_full = x_full
        self.b_full = b_full
        self.alpha = alpha
        self.d0 = pot.derivs[0]
        self.d1 = pot.derivs[1]
        # without a field there is nothing to add (the zero field adds zeros)
        self.g = field.g if field is not None else None
        self.u = field.u if field is not None else None
        self.neutral_m1 = float(np.sum(x_full)) - float(np.sum(self.xc))
        self.gap_classes = _gap_classes(self.bc[:-1], self.bc[1:])
        self.opp = np.flatnonzero(self.gap_classes[2])
        self.diag = diag
        self.pending = []
        self.budget = max(1, _DIAG_BUFFER // max(1, 2 * self.m - 1))
        self.evals = 0
        self.pair_evals = 0
        self.unordered_sweeps = 0
        # band radius and skin in positions; ref stays None while every pair
        # is swept unchecked, base is the last commit
        self.radius = radius
        self.skin = _SKIN * self.radius
        self.half_skin = 0.5 * self.skin
        self.ref = None
        self.base = self.xc
        # the band, if the span calls for one, replaces the full list before
        # that is built
        self.chunks = None
        self.w = self.m - 1
        self.n_pairs = self.m * self.w // 2
        self._watch_span()
        if self.chunks is None:
            self._set_pairs(self.w)

    def _set_pairs(self, w):
        """Sweep the pairs j - i <= w in the order of ``_band_pairs``, one
        offset after another; (i, j, alpha b_i b_j, alpha^2 b_i b_j) per
        chunk.  b_i b_j = +-1, so folding alpha in leaves every product
        unchanged."""
        iu, ju = _band_pairs(self.m, w)
        self.w, self.n_pairs = w, len(iu)
        self.chunks = []
        for s in range(0, len(iu), _PAIR_CHUNK):
            i, j = iu[s:s + _PAIR_CHUNK], ju[s:s + _PAIR_CHUNK]
            q = self.bc[i] * self.bc[j]
            self.chunks.append((i, j, q * self.alpha, q * self.alpha ** 2))

    def _watch_span(self):
        """Start the band once the last commit spans more than r + s."""
        if (self.ref is None and self.radius < np.inf and self.m > 1
                and self.base[-1] - self.base[0] > self.radius + self.skin):
            self._build_band(0.0)

    def _build_band(self, spread):
        """Band at the last commit, valid within max(s, 2 spread) / 2 of it."""
        skin = max(self.skin, 2.0 * spread)
        base = self.base
        reach = np.searchsorted(base, base + (self.radius + skin), "right")
        w = int((reach - np.arange(1, self.m + 1)).max())
        if w > self.w or w * (2 * self.m - w - 1) <= _NARROW * 2 * self.n_pairs:
            self.flush()
            self._set_pairs(w)
        self.ref, self.half_skin = base, 0.5 * skin

    def rhs(self, xc):
        if self.ref is not None:
            # a non-finite point fails its step anyway; it moves no band
            spread = float(np.abs(xc - self.ref).max())
            if self.half_skin < spread < np.inf:
                self._build_band(float(np.abs(xc - self.base).max()))
        self.evals += 1
        self.pair_evals += self.n_pairs
        m = self.m
        acc = np.zeros(m)
        for i, j, _, qf in self.chunks:
            d = xc[j] - xc[i]
            # a nan fails the test and takes the general form
            if d.min() > 0:
                w = qf * self.d1(self.alpha * d)
            else:
                w = qf * self.d1(self.alpha * np.abs(d)) * np.sign(d)
                self.unordered_sweeps += 1
            acc += np.bincount(i, w, m)
            acc -= np.bincount(j, w, m)
        acc /= self.n
        if self.g is not None:
            acc += self.bc * self.g(xc)
        return acc

    def energy(self, xs):
        """Energy of each row of the (rows, m) block ``xs``.

        Each pair is evaluated at |x_j - x_i|, so the rows need not be
        ordered.  Blocks of rows are swept together so that no temporary
        exceeds ``_PAIR_CHUNK`` points; each row sums its chunks in the same
        order.  ``take`` gathers a block's columns at a third of the cost of
        fancy indexing, a block of one row is swept as a 1-D row to save call
        overhead, and the evaluators are given flat arrays.
        """
        e = np.zeros(len(xs))
        if self.chunks:
            step = max(1, _PAIR_CHUNK // len(self.chunks[0][0]))
            for s in range(0, len(xs), step):
                blk = xs[s] if step == 1 else xs[s:s + step]
                acc = 0.0
                for i, j, qe, _ in self.chunks:
                    d = np.abs(blk.take(i, axis=-1) - blk.take(j, axis=-1))
                    vals = self.d0(self.alpha * d.ravel()).reshape(d.shape)
                    acc = acc + (qe * vals).sum(axis=-1) / self.n ** 2
                e[s:s + step] = acc
        if self.u is not None and self.m >= 1:
            u = np.asarray(self.u(xs.ravel()), dtype=float).reshape(xs.shape)
            e += (self.bc * u).sum(axis=1) / self.n
        return e

    def record(self, t, xc, gaps):
        """Buffer the commit (t, xc, gaps); flush once the budget is full."""
        self.pending.append((t, xc, gaps))
        self.base = xc
        self._watch_span()
        if len(self.pending) >= self.budget:
            self.flush()

    def flush(self):
        """Append the buffered commits to ``diag`` as rows, in order."""
        if not self.pending:
            return
        diag = self.diag
        ts, xs, gaps = zip(*self.pending)
        self.pending = []
        xs = np.array(xs)
        mins = _min_gaps(np.array(gaps), self.gap_classes)
        d_plus, d_minus, d_opp = mins.T.tolist()
        diag.t.extend(ts)
        diag.d_plus.extend(d_plus)
        diag.d_minus.extend(d_minus)
        diag.min_opposite_gap.extend(d_opp)
        diag.m1.extend((xs.sum(axis=1) + self.neutral_m1).tolist())
        diag.energy.extend(self.energy(xs).tolist() if self.m
                           else [np.nan] * len(ts))
        diag.n_charged.extend([self.m] * len(ts))

    def state(self, t, xc) -> ParticleState:
        x = self.x_full.copy()
        x[self.idx] = xc
        return ParticleState(t, x, self.b_full)


def simulate(state0: ParticleState, pot: Potential, alpha: float,
             field: ExternalField | None = None, t_end: float = 1.0,
             opts: IntegratorOptions = IntegratorOptions(),
             t_eval=None) -> SimulationResult:
    """Advance the particle system to ``t_end`` with collision handling.

    ``t_eval`` requests state snapshots at given times (stepping lands on
    them exactly; a request within 1e-12 max(1, |t|) of a reached time t is
    taken there, and one before the start time is the start state).
    ``t_end`` must be finite and not before the start time, and no request
    may be nan or after ``t_end``; otherwise ValueError is raised before
    the first step; the PDE solvers share this contract and its queue
    (``_snapshot_queue``).  Diagnostics hold one row at the start, one after
    each event batch and one per accepted step; rows are computed in blocks
    and are all present on return.  numpy floating-point warnings are silenced
    while it runs: a crossing or coinciding stage point yields inf or nan,
    and step control rejects it.
    """
    state0.validate()
    eval_queue = _snapshot_queue(state0.t, t_end, t_eval)
    # spot check of the monotone-force ledger (warn-only; the full audit is
    # the caller's business)
    if pot.deriv(1.0, 1) > 0.0 or pot.deriv(1.0, 2) < 0.0:
        warnings.warn(
            f"potential '{pot.name}' violates the monotone force conditions; "
            "collision handling assumes f >= 0 and f' <= 0", RuntimeWarning)
    a_exp = pot.singularity_exponent if pot.singularity_exponent is not None else 0.0
    p = 2.0 + a_exp
    r_trig, r_cluster = _event_radii(a_exp)
    radius = _band_cutoff(pot, alpha, opts.rk_tol)

    events = EventLog()
    diag = Diagnostics()
    snapshots = []
    t, x, b = state0.t, state0.x, state0.b
    stats = {"accepted": 0, "rejected": 0, "force_evals": 0, "pair_evals": 0,
             "gap_capped": 0, "snapshot_capped": 0, "end_capped": 0,
             "contact_scaled": 0, "unordered_sweeps": 0}

    with np.errstate(**_KERNEL_ERRSTATE):
        while True:
            seg = _Segment(x, b, pot, alpha, field, diag, radius)
            tab = _DP5 if len(seg.opp) else _BS3
            *_, err_weights, q = tab
            # the stages of one attempt, the last one at the trial point
            ks = np.empty((len(err_weights), seg.m))
            xc = seg.xc
            gaps = _gaps(xc)
            ks[0] = seg.rhs(xc)
            h = H_INIT
            t_prev, prev_dp, tc_prev = t, None, np.inf
            event = None
            while True:
                # commit (t, xc), the segment start or an accepted step: one
                # buffered diagnostics row, the step ceiling and error scale
                # for the next step, the event check, the snapshots due and
                # the next step, set here once
                seg.record(t, xc, gaps)
                opp_gaps = gaps[seg.opp]
                d_min = float(opp_gaps.min()) if len(opp_gaps) else np.inf
                dp = opp_gaps ** p
                if prev_dp is None or not len(dp):
                    # no rate before the first step: take it as 1; no cap
                    # without an opposite pair (d_min is inf)
                    h_cap = GAP_FACTOR * d_min ** p
                else:
                    contact = _contact_times(dp, prev_dp, t - t_prev)
                    tc = float(contact.min(initial=np.inf))
                    h_cap = GAP_FACTOR * tc
                    # a step h errs by about h^q tc^(1/p - q) near the
                    # contact (module docstring): as tc shrinks, shrink
                    # error control's proposal as err = 1 asks
                    if tc < tc_prev < np.inf:
                        h *= (tc / tc_prev) ** (1.0 - 1.0 / (p * q))
                        stats["contact_scaled"] += 1
                    tc_prev = tc
                    if d_min < r_trig or h_cap < H_COLLISION_FLOOR:
                        event = _extrapolate_event(seg.opp, seg.idx, gaps,
                                                   contact, t, r_trig,
                                                   r_cluster)
                scale = opts.rk_tol * (1.0 + np.abs(xc))
                t_prev, prev_dp = t, dp
                for tv in _pop_due(eval_queue, t):
                    snapshots.append(seg.state(tv, xc))
                if event is not None or t >= t_end - 1e-300:
                    break
                # error control's proposal below the floor: accepted steps
                # would only move t by round-off
                floor = _step_floor(t)
                if h < floor:
                    raise StiffnessError(
                        f"step control stalled at round-off at t={t:.6g}",
                        {"t": t, "h": h, "min_opposite_gap": d_min})
                h_err = h
                h = min(h, h_cap, t_end - t)
                if eval_queue:
                    h = min(h, eval_queue[0] - t)
                h = max(h, floor)
                # the bound that set h, if one clipped it; a tie goes to the
                # first of gap cap, snapshot time and t_end
                if h < h_err:
                    if h == h_cap:
                        stats["gap_capped"] += 1
                    elif eval_queue and h == eval_queue[0] - t:
                        stats["snapshot_capped"] += 1
                    elif h == t_end - t:
                        stats["end_capped"] += 1

                # attempts until one is accepted: a rejection only shrinks
                # h, so no bound above binds again
                while True:
                    if stats["accepted"] + stats["rejected"] >= MAX_STEPS:
                        raise StiffnessError("step budget exhausted",
                                             {"t": t, "n_charged": seg.m})
                    x_new, new_gaps, err_norm = _rk_attempt(tab, seg, xc, ks,
                                                            h, scale)
                    if err_norm <= 1.0:
                        break
                    stats["rejected"] += 1
                    if h <= max(H_MIN, floor):
                        raise StiffnessError(
                            f"step underflow at t={t:.6g} without a collision",
                            {"t": t, "h": h, "min_opposite_gap": d_min})
                    h = max(h * max(0.2, 0.9 * err_norm ** (-1.0 / q)),
                            H_MIN, floor)

                stats["accepted"] += 1
                t = t + h
                xc, gaps = x_new, new_gaps
                ks[0] = ks[-1]
                h = h * min(5.0, max(0.2, 0.9 * (err_norm + 1e-16) ** (-1.0 / q)))

            seg.flush()
            stats["force_evals"] += seg.evals
            stats["pair_evals"] += seg.pair_evals
            stats["unordered_sweeps"] += seg.unordered_sweeps
            if event is None:
                break  # reached t_end
            # the batch on one copy: each cluster meets at its mean position
            tau, clusters = event
            t = min(max(tau, t), t_end)
            x, b = seg.x_full.copy(), seg.b_full.copy()
            x[seg.idx] = xc
            for cluster in clusters:
                y = float(np.mean(x[cluster]))
                b_before = tuple(b[cluster].tolist())
                _annihilate_cluster(x, b, cluster, y)
                events.append(CollisionEvent(t, y, tuple(cluster), b_before,
                                             tuple(b[cluster].tolist())))
            x_left = x[b != 0]
            if len(x_left) > 1 and np.min(np.diff(x_left)) <= SPACING_TOL:
                raise InvariantViolationError(
                    "state left the ordered space after event")

    # the last commit, at t_end, took every request: none is after t_end
    return SimulationResult(seg.state(t, xc), events, diag, snapshots, stats)


def _rk_attempt(tab, seg, xc, ks, h, scale):
    """One attempt of ``tab`` (``_DP5`` or ``_BS3``) from xc with step h:
    (trial point, its neighbor gaps, error norm relative to ``scale``).

    ``ks[0]`` holds the stage at xc; the attempt fills the others, the last
    at the trial point, the next step's first.  An unordered trial point or
    a non-finite error gives the norm inf.
    """
    rows, weights, err_weights, _ = tab
    for s, row in enumerate(rows, 1):
        ks[s] = seg.rhs(xc + h * (row @ ks[:s]))
    x_new = xc + h * (weights @ ks[:len(weights)])
    gaps = _gaps(x_new)
    # a nan gap fails the test, like a non-positive one
    if not (seg.m < 2 or gaps.min() > 0):
        return x_new, gaps, np.inf
    ks[-1] = seg.rhs(x_new)
    err = h * np.abs(err_weights @ ks)
    err_norm = float((err / scale).max()) if seg.m else 0.0
    return x_new, gaps, err_norm if math.isfinite(err_norm) else np.inf


def _snapshot_queue(t0, t_end, t_eval):
    """The snapshot times requested of ``simulate`` or ``pde._march`` from
    t0 to ``t_end``, sorted; ValueError unless ``t_end`` is finite and not
    before t0 and no request is nan or after ``t_end``."""
    queue = sorted(float(tv) for tv in (t_eval if t_eval is not None else []))
    if not (math.isfinite(t_end) and t0 <= t_end):
        raise ValueError(f"t_end must be finite and at least the start time "
                         f"{t0}, got {t_end}")
    if not all(tv <= t_end for tv in queue):
        raise ValueError(f"snapshot times must not be nan or exceed t_end "
                         f"= {t_end}")
    return queue


def _pop_due(queue, t):
    """Pop and return the leading requested times reached at t: those
    within 1e-12 max(1, |t|) of it or before it."""
    tol = 1e-12 * max(1.0, abs(t))
    due = []
    while queue and t >= queue[0] - tol:
        due.append(queue.pop(0))
    return due


def _step_floor(t):
    """The least step at time t: a smaller one moves t by round-off only."""
    return 1e-16 * max(1.0, abs(t))


def _contact_times(dp, prev_dp, dt):
    """Time to contact of each opposite pair: d^p over the rate at which it
    shrinks, from d^p affine in t through two commits dt > 0 apart that give
    ``prev_dp`` and ``dp``; inf where d^p does not shrink.  Runs under the
    caller's ``np.errstate(**_KERNEL_ERRSTATE)``: a zero rate divides by 0."""
    rates = (prev_dp - dp) / dt
    return np.where(rates > 0, dp / rates, np.inf)


def _extrapolate_event(opp, idx, gaps, contact, t, r_trig, r_cluster):
    """Collision time and clusters of the closing opposite pairs whose gap
    is under the trigger radius or whose gap cap GAP_FACTOR t_c is under
    H_COLLISION_FLOOR (see ``_event_radii``); None when no pair fires.

    ``opp`` holds the opposite-sign neighbor slots among the charged
    particles ``idx`` (global indices, in spatial order); ``gaps`` are their
    neighbor gaps at time t and ``contact`` the opposite pairs' times to
    contact (``_contact_times``).  A cluster is a run of slots with gaps at
    most r_cluster holding a fired slot: the global indices of the particles
    it joins, in spatial order, whose rightmost is an odd cluster's survivor
    (``_annihilate_cluster``).  r_cluster is at least CLUSTER_FACTOR times
    the widest fired gap, so every fired slot lies in a run.
    """
    opp_gaps = gaps[opp]
    closing = (((opp_gaps < r_trig)
                | (GAP_FACTOR * contact < H_COLLISION_FLOOR))
               & (contact < np.inf))
    if not np.any(closing):
        return None
    tau = t + float(contact[closing].min())
    # a pair fired by its closing rate may be wider than the trigger radius
    r_cluster = max(r_cluster, CLUSTER_FACTOR * float(opp_gaps[closing].max()))
    # the runs of near slots, from their edges: slots starts[r] to
    # ends[r] - 1, joining particles starts[r] to ends[r]
    near = np.concatenate(([False], gaps <= r_cluster, [False]))
    starts = np.flatnonzero(near[1:] & ~near[:-1])
    ends = np.flatnonzero(near[:-1] & ~near[1:])
    # fired[s]: fired slots before slot s; a run holds one where it grows
    fired = np.zeros(len(near) - 1, dtype=np.int64)
    fired[opp[closing] + 1] = 1
    fired = np.cumsum(fired)
    hold = fired[ends] > fired[starts]
    return tau, [idx[s:e + 1].tolist() for s, e in zip(starts[hold], ends[hold])]


# ---------------------------------------------------------------------------
# Stability experiment
# ---------------------------------------------------------------------------

def _cluster_relabelings(events: EventLog, n: int):
    """Permutations acting only inside recorded collision clusters, each
    composed with those of the events before it (clusters may overlap)."""
    from itertools import permutations as _perms

    groups = [list(ev.indices) for ev in events]
    perms = [np.arange(n)]
    for grp in groups:
        new_perms = []
        for base in perms:
            for p in _perms(grp):
                q = base.copy()
                q[grp] = base[list(p)]
                new_perms.append(q)
        perms = new_perms
        if len(perms) > 5000:  # combinatorial guard
            break
    uniq = {tuple(p) for p in perms}
    return [np.asarray(p) for p in uniq]


@dataclass
class StabilityReport:
    sigmas: list
    sup_distance_pre: list    # sup over t before the first collision window
    sup_distance_post: list   # sup after the last window, min over relabelings
    collision_time_shift: list
    charges_match: list
    excluded_halfwidth: float

    def to_dict(self):
        return self.__dict__.copy()


def stability_experiment(state0: ParticleState, sigmas, pot: Potential,
                         alpha: float, field: ExternalField | None,
                         t_end: float, opts: IntegratorOptions = IntegratorOptions(),
                         seed: int = 0,
                         exclusion_halfwidth: float = 0.05) -> StabilityReport:
    """Perturb x0 by uniform noise of amplitude sigma and g by the constant
    sigma; report sup-over-time distances to the baseline, minimized over
    relabelings inside collision clusters.

    Windows of half-width ``exclusion_halfwidth``*(t_end) around the
    collision times of either run are excluded: there the configurations
    collapse at slightly shifted times and no pointwise bound can hold.
    Away from collisions the pre-collision distance obeys a Gronwall bound
    linear in sigma; after a multi-particle collision the perturbed system
    may split the cluster, so the post-collision distance is only known to
    vanish as sigma does (at a scenario-dependent rate), while the charge
    outcome is eventually identical modulo cluster relabeling.
    """
    taus = np.linspace(state0.t, t_end, COMPARE_TIMES)
    base = simulate(state0, pot, alpha, field, t_end, opts, t_eval=taus)
    base_taus = [ev.tau for ev in base.events]
    rng = np.random.default_rng(seed)
    base_field = field or zero_field()
    w = exclusion_halfwidth * (t_end - state0.t)

    report = StabilityReport([], [], [], [], [], w)
    relabelings = _cluster_relabelings(base.events, state0.n)
    for sigma in sigmas:
        if sigma == 0.0:
            pert0 = state0
            pfield = base_field
        else:
            noise = rng.uniform(-sigma, sigma, size=state0.n)
            pert0 = ParticleState(state0.t, state0.x + noise, state0.b)
            pert0.validate()
            pfield = ExternalField(
                u=lambda x, f=base_field, s=sigma: np.asarray(f.u(x), dtype=float) + s * np.asarray(x, dtype=float),
                uprime=lambda x, f=base_field, s=sigma: np.asarray(f.uprime(x), dtype=float) + s,
                lipschitz_bound_uprime=base_field.lipschitz_bound_uprime,
                name=f"{base_field.name}+{sigma:g}")
        pert = simulate(pert0, pot, alpha, pfield, t_end, opts, t_eval=taus)

        event_times = base_taus + [ev.tau for ev in pert.events]
        keep = np.ones(len(taus), dtype=bool)
        for bt in event_times:
            keep &= np.abs(taus - bt) > w
        pre = keep & (taus < min(event_times, default=np.inf))
        post = keep & ~pre

        bx = np.stack([s.x for s in base.snapshots])
        px = np.stack([s.x for s in pert.snapshots])
        d_pre = float(np.max(np.abs(bx[pre] - px[pre]))) if np.any(pre) else 0.0
        best_post = np.inf if np.any(post) else 0.0
        for perm in relabelings:
            if np.any(post):
                d = float(np.max(np.abs(bx[post] - px[post][:, perm])))
                best_post = min(best_post, d)
        shift = 0.0
        if base_taus and pert.events.events:
            pert_taus = sorted(ev.tau for ev in pert.events)
            shift = max(abs(a - b) for a, b in
                        zip(sorted(base_taus), pert_taus[:len(base_taus)]))
        bb = base.snapshots[-1].b
        pb = pert.snapshots[-1].b
        charges = any(np.array_equal(bb, pb[perm]) for perm in relabelings)
        report.sigmas.append(float(sigma))
        report.sup_distance_pre.append(d_pre)
        report.sup_distance_post.append(float(best_post))
        report.collision_time_shift.append(float(shift))
        report.charges_match.append(bool(charges))
    return report
