"""Error-state EKF-SLAM over global robot poses and static landmarks.

State: one mean array in error-state order, the order of P's columns and of
every correction: N robot poses (right-perturbation error states [phi, x, y]
per robot) followed by L landmark positions. The measurement rows are the
closed-form range rows of ``ranging.range_rows``, lifted to the global frame
where robot 1 is a state like any other; GPS anchors robot 1.

Landmarks enter by delayed initialization: ranges buffer until a
trilateration over sufficiently spread tag positions is well conditioned
and explains its ranges, then the solution and its (inflated)
normal-equation covariance are inserted into the state.

The caller owns the state: predict, the updates and landmark init change it
in place and return the same object. Every update is a sequence of scalar
updates, one per measurement row, which with independent (diagonal) noise
gives the joint update exactly (Bar-Shalom et al., ch. 5). Range rows and
GPS fixes go through one fold pass, ``_fold``. An event touches a handful of
state entries, so its cost is per-call overhead: the pass linearizes each row
at the mean just before folding it in, from Python floats on tables the
model builds once, with the operations of ``range_rows`` in its order (so bit
for bit), and folds it in by a few numpy calls on the columns it touches.
The mean moves once, when the pass retracts its summed correction through
``EkfState._retract``; it and the predict move the poses by ``se2.exp_step``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from covform.ranging import DEGENERATE_RANGE, _edge_index, _EdgeIndex
from covform.se2 import _V_apply, exp_step
from covform.team import RangeGraph, TeamConfig

RANGE_GATE_1DOF = 13.8   # chi-square, 99.98%
GPS_GATE_2DOF = 18.4
MIN_BASELINE = 0.5       # m of tag spread before trilateration is attempted
MIN_PLANAR_SPREAD = 0.08  # m of spread off the principal line (tag offsets suffice)
MIRROR_COST_RATIO = 0.8  # accept only if the fit clearly beats its mirror image
MAX_TRILAT_COND = 1e6
_GN_ITERS = 15  # Gauss-Newton iterations of a trilateration fit
# an init whose final fit leaves an RMS residual beyond this many range sigmas
# has converged to a wrong local minimum (seen: 100 m off from three points)
MAX_INIT_RMS_SIGMAS = 3.0
INIT_COV_INFLATION = 10.0
_BUFFER_CAP = 80
_BUFFER_NOVELTY = 0.05   # m; points closer than this to a buffered one are skipped
_UNINIT_PRIOR = 1e6
_XY = np.arange(2)
_GPS_COLS = _XY + 1  # robot 1's position columns


class EkfModel:
    """The range model's tag/edge table plus the landmark count of one filter setup.

    Built once per filter, it also holds the per-event lookups as Python
    lists, so that each measurement row is linearized from plain floats:
    each tag's robot, body offset and rotation lever; each edge's endpoint
    tags, noise and six state columns; the five state columns of every
    (tag, landmark) row; and the flat indices of the N robot blocks of P
    (dim, dim), one row of nine per robot.
    """

    def __init__(self, index: _EdgeIndex, n_landmarks: int) -> None:
        self.index = idx = index
        self.n_landmarks = n_landmarks
        self.tag_robot = idx.tag_robot.tolist()
        self.tag_body = idx.tag_body.tolist()
        self.tag_perp = idx.tag_perp.tolist()
        self.edge_tags = list(zip(idx.edge_i.tolist(), idx.edge_j.tolist()))
        self.edge_sigma = idx.sigma.tolist()
        self.edge_cols = list(np.concatenate([idx.tag_cols[idx.edge_i],
                                              idx.tag_cols[idx.edge_j]], axis=1))
        self.lm_cols = [[np.concatenate([tag_cols, self.lm_col(lm) + _XY])  # [tag][landmark]
                         for lm in range(n_landmarks)] for tag_cols in idx.tag_cols]
        blk = np.arange(3 * self.n_robots).reshape(-1, 3)
        self.robot_block_flat = (blk[:, :, None] * self.dim + blk[:, None, :]).reshape(-1, 9)

    @property
    def n_robots(self) -> int:
        return self.index.n_robots

    @property
    def dim(self) -> int:
        return 3 * self.n_robots + 2 * self.n_landmarks

    def lm_col(self, lm: int) -> int:
        return 3 * self.n_robots + 2 * lm

    @classmethod
    def build(cls, team: TeamConfig, graph: RangeGraph, n_landmarks: int) -> "EkfModel":
        return cls(_edge_index(team, graph), n_landmarks)


class EkfState:
    """Filter mean and covariance, owned by the caller and updated in place.

    The mean is one float64 array, [phi, x, y] per robot and then [x, y] per
    landmark; ``ang`` (N,), ``pos`` (N,2) and ``landmarks`` (L,2) are writable
    views of it. It is current at every moment: each update retracts its
    correction as it is made, and ``ekf_predict`` applies its motion.
    """

    def __init__(self, ang: np.ndarray, pos: np.ndarray, landmarks: np.ndarray,
                 initialized: np.ndarray, P: np.ndarray) -> None:
        self._n = n = len(ang)
        self.mean = np.concatenate([np.column_stack([ang, np.reshape(pos, (n, 2))]).ravel(),
                                    np.ravel(landmarks)], dtype=np.float64)
        self.initialized = initialized                       # (L,) bool
        self.P = P
        self._outer = np.empty(P.shape)  # each scalar update's rank-1 downdate of P

    @classmethod
    def create(cls, model: EkfModel, ang: np.ndarray, pos: np.ndarray,
               att_sigma: float, pos_sigma: float) -> "EkfState":
        L = model.n_landmarks
        P = np.diag(np.concatenate([
            np.tile([att_sigma ** 2, pos_sigma ** 2, pos_sigma ** 2], model.n_robots),
            np.full(2 * L, _UNINIT_PRIOR)]))
        return cls(ang, pos, np.zeros((L, 2)), np.zeros(L, dtype=bool), P)

    @property
    def ang(self) -> np.ndarray:
        """Robot headings (N,)."""
        return self.mean[:3 * self._n:3]

    @property
    def pos(self) -> np.ndarray:
        """Robot positions (N,2)."""
        return self.mean[:3 * self._n].reshape(-1, 3)[:, 1:]

    @property
    def landmarks(self) -> np.ndarray:
        """Landmark positions (L,2), meaningless until initialized."""
        return self.mean[3 * self._n:].reshape(-1, 2)

    def tag_position(self, model: EkfModel, tag: int) -> np.ndarray:
        """The world position of one tag, as ``_place`` gives the measurement rows."""
        return np.array(_place(self, model, tag)[2:4])

    def _retract(self, delta: np.ndarray) -> None:
        """Retract an error-state correction into the mean, in place: each
        pose by right exp (``se2.exp_step``), landmarks additively."""
        m = 3 * self._n
        exp_step(self.mean[:m], delta[:m])
        self.mean[m:] += delta[m:]


def transitions(u: np.ndarray, dt: float) -> np.ndarray:
    """The error-state transitions Ad(exp(-xi)) (..., 3, 3) of the per-robot
    motion T <- T exp(xi), xi = dt u, for commands u (..., 3) over any leading
    axes.

    They depend on the command alone, never on the filter state, so a replay
    builds them for a block of steps at once.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    xi = dt * u
    phi = xi[..., 0]
    t = _V_apply(phi, xi[..., 1:])
    tx, ty = t[..., 0], t[..., 1]
    # Ad(exp(-xi)) under the [phi, rho] ordering: exp(-xi) has rotation
    # Cinv = R(-phi) and translation rinv = -Cinv t, t = V(phi) rho
    c, s = np.cos(-phi), np.sin(-phi)
    F = np.zeros(phi.shape + (3, 3))
    F[..., 0, 0] = 1.0
    F[..., 1, 0] = -(s * tx + c * ty)
    F[..., 2, 0] = c * tx - s * ty
    F[..., 1, 1] = F[..., 2, 2] = c
    F[..., 1, 2] = -s
    F[..., 2, 1] = s
    return F


def ekf_predict(state: EkfState, model: EkfModel, xi: np.ndarray, F: np.ndarray,
                Q: np.ndarray) -> EkfState:
    """Propagate every robot by one step, in place; landmarks are static.

    The twists xi = dt u (N,3) move the mean through ``se2.exp_step``; F
    (N,3,3) is the step's row of ``transitions`` and process noise
    Q = dt^2 * vel_cov enters on each robot's own block, through the flat
    view of P (which EkfState.create makes C-contiguous). The transition is
    the identity off its N robot blocks, so F P F^T applies the blocks to
    the robot rows of P and then to its robot columns.
    """
    n, m = model.n_robots, 3 * model.n_robots
    exp_step(state.mean[:m], xi)
    P = state.P
    P[:m] = (F @ P[:m].reshape(n, 3, -1)).reshape(m, -1)
    P[:, :m] = (F @ P[:, :m].T.reshape(n, 3, -1)).reshape(m, -1).T
    P.reshape(-1)[model.robot_block_flat] += Q.ravel()
    return state


def _fold(state: EkfState, rows: Iterable[tuple[np.ndarray, np.ndarray, float, float]],
          gate: float | None) -> int:
    """Fold independent rows (cols, h, nu, sigma), h on the state columns cols
    with innovation nu and noise sigma, in one scalar update at a time, in
    place: each reads only its columns of P and downdates P through the
    state's buffer. Retracts the summed correction once (``EkfState._retract``)
    and returns how many rows the gate dropped; with none, this is the joint update."""
    P, outer = state.P, state._outer
    delta = None  # the summed correction, once a row is folded in
    n_rejected = 0
    for c, h, v, sigma in rows:
        Ph = P[:, c] @ h
        s = float(h @ Ph[c]) + sigma * sigma
        if delta is not None:
            v -= float(h @ delta[c])
        if gate is not None and not v * v / s <= gate:
            n_rejected += 1
            continue
        step = Ph * (v / s)
        delta = step if delta is None else delta + step
        np.multiply(Ph[:, None], Ph, out=outer)
        outer /= s
        P -= outer
    if delta is not None:
        state._retract(delta)
    return n_rejected


def _range_unit(dx: float, dy: float) -> tuple[float, float, float, bool]:
    """(range, unit x, unit y, valid) of a tag-to-endpoint offset; a range not
    above DEGENERATE_RANGE is invalid and has a zero unit vector."""
    rng = math.sqrt(dx * dx + dy * dy)
    if rng > DEGENERATE_RANGE:
        return rng, dx / rng, dy / rng, True
    return rng, 0.0, 0.0, False


def _pose(state: EkfState, p: int) -> tuple[float, float, float, float]:
    """(cos, sin, x, y) of robot p's pose at the mean, as Python floats."""
    ang, x, y = state.mean[3 * p:3 * p + 3].tolist()
    return math.cos(ang), math.sin(ang), x, y


def _place(state: EkfState, model: EkfModel, tag: int) -> tuple[float, ...]:
    """(cos, sin) of a tag's robot heading, the tag's world position and its
    rotation lever C (S a), as Python floats at the mean."""
    c, s, rx, ry = _pose(state, model.tag_robot[tag])
    (bx, by), (ax, ay) = model.tag_body[tag], model.tag_perp[tag]
    return c, s, c * bx - s * by + rx, s * bx + c * by + ry, c * ax - s * ay, s * ax + c * ay


def _block(ux: float, uy: float, c: float, s: float, lx: float, ly: float) -> list[float]:
    """One endpoint robot's [phi, x, y] entries of a range row: u . lever and u^T C."""
    return [ux * lx + uy * ly, ux * c + uy * s, uy * c - ux * s]


def _edge_row(state: EkfState, model: EkfModel,
              k: int) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Robot-robot edge k's row at the mean: (state columns, row, predicted
    range, valid) on the six [phi, x, y] columns of both endpoint robots, a
    degenerate range invalid with a zero row; ``range_rows``' entries, bit for bit."""
    i, j = model.edge_tags[k]
    ci, si, xi, yi, lxi, lyi = _place(state, model, i)
    cj, sj, xj, yj, lxj, lyj = _place(state, model, j)
    rng, ux, uy, ok = _range_unit(xi - xj, yi - yj)
    h = np.array(_block(ux, uy, ci, si, lxi, lyi) + _block(-ux, -uy, cj, sj, lxj, lyj))
    return model.edge_cols[k], h, rng, ok


def _landmark_row(state: EkfState, model: EkfModel, tag: int,
                  lm: int) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """The (tag, landmark) row at the mean, as ``_edge_row`` gives an edge's,
    on the tag robot's three columns and the landmark's two."""
    c, s, x, y, lx, ly = _place(state, model, tag)
    m = model.lm_col(lm)
    mx, my = state.mean[m:m + 2].tolist()
    rng, ux, uy, ok = _range_unit(x - mx, y - my)
    return model.lm_cols[tag][lm], np.array(_block(ux, uy, c, s, lx, ly) + [-ux, -uy]), rng, ok


def ekf_update_ranges(state: EkfState, model: EkfModel, rr_idx: Sequence[int],
                      z_rr: Sequence[float], lm_edges: Sequence[tuple[int, int]],
                      z_lm: Sequence[float], lm_sigma: float) -> tuple[EkfState, int]:
    """Update in place on selected robot-robot edges plus landmark rows.

    rr_idx indexes into the model's edge arrays. The rows, robot-robot ones
    first, are folded in one at a time, each linearized at the mean just
    before (the mean moves after the last); each row is gated on its normalized
    innovation squared against the covariance the rows before it left, and dropped
    and counted if it exceeds RANGE_GATE_1DOF or is not a number. Rows with a
    degenerate predicted range are skipped uncounted. Returns (state, number rejected).
    """
    def rows() -> Iterator[tuple[np.ndarray, np.ndarray, float, float]]:
        for k, z in zip(rr_idx, z_rr):
            c, h, rng, ok = _edge_row(state, model, k)
            if ok:
                yield c, h, float(z) - rng, model.edge_sigma[k]
        for (tag, lm), z in zip(lm_edges, z_lm):
            c, h, rng, ok = _landmark_row(state, model, tag, lm)
            if ok:
                yield c, h, float(z) - rng, lm_sigma

    return state, _fold(state, rows(), RANGE_GATE_1DOF)


def ekf_update_gps(state: EkfState, model: EkfModel, measured: np.ndarray,
                   sigma: float) -> tuple[EkfState, bool]:
    """Position fix on robot 1, in place; gated on the joint 2-dof innovation.

    A fix whose normalized innovation squared exceeds GPS_GATE_2DOF or is not a
    number is rejected and leaves the state as it was, and so is one whose
    2x2 innovation covariance has no positive determinant (it has no NIS).
    """
    c, s, x, y = _pose(state, 0)
    n0, n1 = nu = [float(measured[0]) - x, float(measured[1]) - y]
    # nu^T S^-1 nu for the 2x2 innovation covariance S = (R P_xy) R^T + sigma^2 I,
    # written out
    (p00, p01), (p10, p11) = state.P[1:3, 1:3].tolist()
    q00, q01, q10, q11 = c * p00 - s * p10, c * p01 - s * p11, s * p00 + c * p10, s * p01 + c * p11
    var = sigma * sigma
    s00, s01 = q00 * c - q01 * s + var, q00 * s + q01 * c
    s10, s11 = q10 * c - q11 * s, q10 * s + q11 * c + var
    det = s00 * s11 - s01 * s10
    if not det > 0 or not ((s11 * n0 * n0 - (s01 + s10) * n0 * n1 + s00 * n1 * n1) / det
                           <= GPS_GATE_2DOF):
        return state, False
    R = np.array([[c, -s], [s, c]])  # rot2 of the heading
    _fold(state, zip((_GPS_COLS, _GPS_COLS), R, nu, (sigma, sigma)), None)
    return state, True


def _gauss_newton(points: np.ndarray, ranges: np.ndarray,
                  start: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Refine a trilateration guess; returns (solution, sum squared residual,
    normal matrix J^T J), the last two at the solution."""
    sol, settled = start.copy(), False
    for k in range(_GN_ITERS + 1):  # a last pass evaluates where the steps ended
        diff = sol - points
        dists = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        resid = dists - ranges
        J = diff / dists[:, None]
        JtJ = J.T @ J
        if settled or k == _GN_ITERS:
            break
        try:
            step = np.linalg.solve(JtJ, J.T @ resid)
        except np.linalg.LinAlgError:
            break
        sol = sol - step
        settled = np.linalg.norm(step) < 1e-12
    return sol, float(np.sum(resid ** 2)), JtJ


def trilaterate(points: np.ndarray, ranges: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Nonlinear least-squares point from ranges to known positions, a linear
    closed-form start refined by ``_gauss_newton``: (solution, normal-matrix
    inverse, condition number of the normal matrix), the last two at the solution."""
    points = np.asarray(points, dtype=np.float64)
    ranges = np.asarray(ranges, dtype=np.float64)
    p0, d0 = points[0], ranges[0]
    A = 2.0 * (points[1:] - p0)
    b = (np.einsum("ij,ij->i", points[1:], points[1:]) - p0 @ p0
         - ranges[1:] ** 2 + d0 ** 2)
    start, *_ = np.linalg.lstsq(A, b, rcond=None)
    sol, _, JtJ = _gauss_newton(points, ranges, start)
    return sol, np.linalg.pinv(JtJ), float(np.linalg.cond(JtJ))


@dataclass
class LandmarkBuffer:
    """Ranges collected for one landmark before it can be trilaterated.

    Points closer than the novelty spacing to an existing entry are
    dropped so the buffer spans the whole fly-by instead of its first
    fraction of a second.
    """

    points: list[np.ndarray] = field(default_factory=list)
    ranges: list[float] = field(default_factory=list)

    def add(self, tag_pos_estimate: np.ndarray, rng: float) -> None:
        if len(self.points) >= _BUFFER_CAP:
            return
        p = np.array(tag_pos_estimate, dtype=np.float64)
        q = np.reshape(self.points, (-1, 2))
        if np.any(np.hypot(p[0] - q[:, 0], p[1] - q[:, 1]) < _BUFFER_NOVELTY):
            return
        self.points.append(p)
        self.ranges.append(float(rng))


def landmark_init(state: EkfState, model: EkfModel, lm: int,
                  buffer: LandmarkBuffer, sigma: float) -> tuple[EkfState, bool]:
    """Try delayed initialization from buffered (tag position, range) pairs, in place.

    Requires at least 3 entries spanning a baseline over MIN_BASELINE with
    genuine 2D spread, a well-conditioned trilateration whose fit, continued
    from its solution, leaves an RMS residual within MAX_INIT_RMS_SIGMAS, and
    a clear win over the mirror-image solution (ranges from near-collinear
    points admit a reflected fit); otherwise the buffer keeps growing.
    """
    if state.initialized[lm]:
        raise ValueError(f"landmark {lm} already initialized")
    n = len(buffer.points)
    if n < 3:
        return state, False
    points = np.asarray(buffer.points)
    ranges = np.asarray(buffer.ranges)
    if np.linalg.norm(points[:, None] - points[None, :], axis=-1).max() <= MIN_BASELINE:
        return state, False
    # one SVD of the centred points: the smallest principal std gates the spread
    # off the principal line, and a mirror-image fit reflects across vt[0]
    centre = points.mean(axis=0)
    _, sv, vt = np.linalg.svd(points - centre, full_matrices=False)
    if sv[-1] / np.sqrt(n) < MIN_PLANAR_SPREAD:
        return state, False
    sol, cov, cond = trilaterate(points, ranges)
    if cond > MAX_TRILAT_COND or not np.all(np.isfinite(sol)):
        return state, False
    # the residual is read where the fit goes on to from sol: a fit that has
    # not settled in _GN_ITERS iterations can end a metre or more from it
    _, cost, _ = _gauss_newton(points, ranges, sol)
    if np.sqrt(cost / n) > MAX_INIT_RMS_SIGMAS * sigma:
        return state, False  # the fit does not explain its own ranges
    reflect = 2.0 * np.outer(vt[0], vt[0]) - np.eye(2)
    mirror, mirror_cost, _ = _gauss_newton(points, ranges, centre + reflect @ (sol - centre))
    if np.linalg.norm(mirror - sol) > 0.05 and cost > MIRROR_COST_RATIO * mirror_cost:
        return state, False  # ambiguous: the reflected fit is competitive
    state.landmarks[lm] = sol
    state.initialized[lm] = True
    c = model.lm_col(lm)
    state.P[c:c + 2, :] = 0.0
    state.P[:, c:c + 2] = 0.0
    state.P[c:c + 2, c:c + 2] = INIT_COV_INFLATION * sigma ** 2 * cov
    return state, True
