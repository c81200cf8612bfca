"""Error-state EKF-SLAM over global robot poses and static landmarks.

State: N robot poses (heading + position, right-perturbation error states
ordered [phi, x, y] per robot) followed by L landmark positions. The
measurement rows reuse the closed-form range Jacobian of the planning
modules, lifted to the global frame where robot 1 is a state like any
other; GPS anchors robot 1.

Landmarks enter by delayed initialization: ranges buffer until a
trilateration over sufficiently spread tag positions is well conditioned,
then the solution and its (inflated) normal-equation covariance are
inserted into the state.

The caller owns the state: predict, the updates and landmark init change it
in place and return the same object. Every update is a sequence of scalar
updates, one per measurement row, which with independent (diagonal) noise
gives the joint update exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from covform.ranging import _edge_index, _EdgeIndex, range_rows, world_tags
from covform.se2 import _rot_many, exp_step, rot2
from covform.team import RangeGraph, TeamConfig

RANGE_GATE_1DOF = 13.8   # chi-square, 99.98%
GPS_GATE_2DOF = 18.4
MIN_BASELINE = 0.5       # m of tag spread before trilateration is attempted
MIN_PLANAR_SPREAD = 0.08  # m of spread off the principal line (tag offsets suffice)
MIRROR_COST_RATIO = 0.8  # accept only if the fit clearly beats its mirror image
MAX_TRILAT_COND = 1e6
# an init whose final fit leaves an RMS residual beyond this many range sigmas
# has converged to a wrong local minimum (seen: 100 m off from three points)
MAX_INIT_RMS_SIGMAS = 3.0
INIT_COV_INFLATION = 10.0
_BUFFER_CAP = 80
_BUFFER_NOVELTY = 0.05   # m; points closer than this to a buffered one are skipped
_UNINIT_PRIOR = 1e6
_XY = np.arange(2)
_GPS_COLS = _XY + 1  # robot 1's position columns


@dataclass
class EkfModel:
    """The range model's tag/edge table plus the landmark count of one filter setup."""

    index: _EdgeIndex
    n_landmarks: int

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


@dataclass
class EkfState:
    """Filter mean and covariance, owned by the caller and updated in place."""

    ang: np.ndarray          # (N,)
    pos: np.ndarray          # (N,2)
    landmarks: np.ndarray    # (L,2), meaningless until initialized
    initialized: np.ndarray  # (L,) bool
    P: np.ndarray

    @classmethod
    def create(cls, model: EkfModel, ang: np.ndarray, pos: np.ndarray,
               att_sigma: float, pos_sigma: float) -> "EkfState":
        L = model.n_landmarks
        P = np.diag(np.concatenate([
            np.tile([att_sigma ** 2, pos_sigma ** 2, pos_sigma ** 2], model.n_robots),
            np.full(2 * L, _UNINIT_PRIOR)]))
        return cls(np.asarray(ang, dtype=np.float64).copy(),
                   np.asarray(pos, dtype=np.float64).copy(),
                   np.zeros((L, 2)), np.zeros(L, dtype=bool), P)

    def tag_positions(self, model: EkfModel) -> np.ndarray:
        return world_tags(model.index, _rot_many(self.ang), self.pos)


def ekf_predict(state: EkfState, model: EkfModel, u: np.ndarray,
                vel_cov: np.ndarray, dt: float) -> EkfState:
    """Propagate every robot by T <- T exp(dt u), in place; landmarks are static.

    The error-state transition per robot is Ad(exp(-dt u)); process noise
    enters as dt^2 * vel_cov on the robot's own block. The transition is the
    identity off its N robot blocks, so F P F^T applies the blocks to the
    robot rows of P and then to its robot columns.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    xi = dt * u
    t = exp_step(state.ang, state.pos, xi)
    # F_p = Ad(exp(-xi_p)) under the [phi, rho] ordering: exp(-xi_p) has
    # rotation Cinv = R(-phi_p) and translation rinv = -Cinv t_p
    Cinv = _rot_many(-xi[:, 0])
    rinv = -np.einsum("nij,nj->ni", Cinv, t)
    n, m = model.n_robots, 3 * model.n_robots
    F = np.zeros((n, 3, 3))
    F[:, 0, 0] = 1.0
    F[:, 1, 0] = rinv[:, 1]
    F[:, 2, 0] = -rinv[:, 0]
    F[:, 1:, 1:] = Cinv
    P = state.P
    P[:m] = (F @ P[:m].reshape(n, 3, -1)).reshape(m, -1)
    P[:, :m] = (F @ P[:, :m].T.reshape(n, 3, -1)).reshape(m, -1).T
    blk = np.arange(m).reshape(-1, 3)
    P[blk[:, :, None], blk[:, None, :]] += (dt * dt) * vel_cov
    return state


def _retract(state: EkfState, model: EkfModel, delta: np.ndarray) -> None:
    """Apply an error-state correction: poses by right exp, landmarks additively."""
    m = 3 * model.n_robots
    exp_step(state.ang, state.pos, delta[:m].reshape(-1, 3))
    state.landmarks += delta[m:].reshape(-1, 2)


def _fold_rows(state: EkfState, model: EkfModel, cols: Sequence[np.ndarray],
               vals: Sequence[np.ndarray], nu: np.ndarray, sigmas: np.ndarray,
               gate: float | None) -> int:
    """Fold independent rows in one scalar update at a time, in place, and
    retract the summed correction once; returns how many rows the gate
    dropped. Row k is vals[k] on the state columns cols[k]; only those
    columns of P are read to form it. With no row gated this is the joint
    update over all rows."""
    P = state.P
    delta = np.zeros(model.dim)
    n_rejected = 0
    for c, h, v, sigma in zip(cols, vals, nu, sigmas):
        Ph = P[:, c] @ h
        s = h @ Ph[c] + sigma * sigma
        v -= h @ delta[c]
        if gate is not None and not v * v / s <= gate:
            n_rejected += 1
            continue
        delta += Ph * (v / s)
        P -= Ph[:, None] * Ph / s
    if n_rejected < len(nu):
        _retract(state, model, delta)
    return n_rejected


def _measurement_rows(state: EkfState, model: EkfModel, rr_idx: np.ndarray,
                      lm_edges: list[tuple[int, int]],
                      ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray]:
    """The selected robot-robot rows plus the given (tag, landmark) rows.

    Every row ranges from a tag to either a second tag (the first E rows)
    or a landmark. Returns (cols, vals, predicted ranges, validity mask):
    row k is vals[k] on the state columns cols[k], the six [phi, x, y]
    columns of both endpoint robots for a robot-robot row, and the tag
    robot's three plus the landmark's two for a landmark row. Rows with a
    degenerate predicted range are flagged invalid instead of raising.
    """
    idx = model.index
    lm_tag, lm = np.asarray(lm_edges, dtype=np.intp).reshape(-1, 2).T
    near, far = idx.edge_i[rr_idx], idx.edge_j[rr_idx]
    Hi, Hj, rng, unit, valid = range_rows(idx, _rot_many(state.ang), state.pos,
                                          np.concatenate([near, lm_tag]), far, state.landmarks[lm])
    e = rr_idx.shape[0]
    cols, vals = [], []
    if e:
        cols += list(np.concatenate([idx.tag_cols[near], idx.tag_cols[far]], axis=1))
        vals += list(np.concatenate([Hi[:e], Hj[:e]], axis=1))
    if lm.shape[0]:
        cols += list(np.concatenate([idx.tag_cols[lm_tag], model.lm_col(lm)[:, None] + _XY],
                                    axis=1))
        vals += list(np.concatenate([Hi[e:], -unit[e:]], axis=1))
    return cols, vals, rng, valid


def ekf_update_ranges(state: EkfState, model: EkfModel, rr_idx: np.ndarray,
                      z_rr: np.ndarray, lm_edges: list[tuple[int, int]], z_lm: np.ndarray,
                      lm_sigma: float, gate: float = RANGE_GATE_1DOF) -> tuple[EkfState, int]:
    """Update in place on selected robot-robot edges plus landmark rows.

    rr_idx indexes into the model's edge arrays. The rows are linearized
    at the incoming state and folded in one at a time; each row is gated on
    its normalized innovation squared against the covariance the rows
    before it left, and dropped and counted if it exceeds the gate. Rows
    with a degenerate predicted range are skipped uncounted. Returns
    (state, number rejected).
    """
    rr_idx = np.asarray(rr_idx, dtype=np.intp)
    cols, vals, zhat, valid = _measurement_rows(state, model, rr_idx, lm_edges)
    nu = np.concatenate([z_rr, z_lm]) - zhat
    sigmas = np.concatenate([model.index.sigma[rr_idx], np.full(len(lm_edges), lm_sigma)])
    if not valid.all():
        keep = np.flatnonzero(valid)
        cols, vals = [cols[k] for k in keep], [vals[k] for k in keep]
        nu, sigmas = nu[keep], sigmas[keep]
    return state, _fold_rows(state, model, cols, vals, nu, sigmas, gate)


def ekf_update_gps(state: EkfState, model: EkfModel, measured: np.ndarray,
                   sigma: float, gate: float = GPS_GATE_2DOF) -> tuple[EkfState, bool]:
    """Position fix on robot 1, in place; gated on the joint 2-dof innovation."""
    R = rot2(state.ang[0])
    nu = np.asarray(measured, dtype=np.float64) - state.pos[0]
    # nu^T S^-1 nu for the 2x2 innovation covariance S, written out
    (a, b), (c, d) = R @ state.P[1:3, 1:3] @ R.T + np.eye(2) * sigma ** 2
    n0, n1 = nu
    if (d * n0 * n0 - (b + c) * n0 * n1 + a * n1 * n1) / (a * d - b * c) > gate:
        return state, False
    _fold_rows(state, model, (_GPS_COLS, _GPS_COLS), R, nu, np.array([sigma, sigma]), None)
    return state, True


def _gauss_newton(points: np.ndarray, ranges: np.ndarray, start: np.ndarray,
                  iters: int = 15) -> tuple[np.ndarray, float]:
    """Refine a trilateration guess; returns (solution, sum squared residual)."""
    sol = start.copy()
    for _ in range(iters):
        diff = sol - points
        dists = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        resid = dists - ranges
        J = diff / dists[:, None]
        try:
            step = np.linalg.solve(J.T @ J, J.T @ resid)
        except np.linalg.LinAlgError:
            break
        sol = sol - step
        if np.linalg.norm(step) < 1e-12:
            break
    dists = np.maximum(np.linalg.norm(sol - points, axis=1), 1e-12)
    return sol, float(np.sum((dists - ranges) ** 2))


def trilaterate(points: np.ndarray, ranges: np.ndarray,
                iters: int = 15) -> tuple[np.ndarray, np.ndarray, float]:
    """Nonlinear least-squares point from ranges to known positions.

    Linear closed-form start, Gauss-Newton refinement. Returns (solution,
    normal-matrix inverse, condition number of the normal matrix).
    """
    points = np.asarray(points, dtype=np.float64)
    ranges = np.asarray(ranges, dtype=np.float64)
    p0, d0 = points[0], ranges[0]
    A = 2.0 * (points[1:] - p0)
    b = (np.einsum("ij,ij->i", points[1:], points[1:]) - p0 @ p0
         - ranges[1:] ** 2 + d0 ** 2)
    start, *_ = np.linalg.lstsq(A, b, rcond=None)
    sol, _ = _gauss_newton(points, ranges, start, iters)
    diff = sol - points
    dists = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
    J = diff / dists[:, None]
    JtJ = J.T @ J
    cond = float(np.linalg.cond(JtJ))
    cov = np.linalg.pinv(JtJ)
    return sol, cov, cond


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
        p = np.asarray(tag_pos_estimate, dtype=np.float64)
        for q in self.points:
            if np.hypot(p[0] - q[0], p[1] - q[1]) < _BUFFER_NOVELTY:
                return
        self.points.append(p.copy())
        self.ranges.append(float(rng))

    def spread(self) -> float:
        """Largest pairwise distance among buffered points."""
        if len(self.points) < 2:
            return 0.0
        pts = np.asarray(self.points)
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        return float(d.max())

    def planar_spread(self) -> float:
        """Point spread off the principal line (smallest principal std)."""
        if len(self.points) < 3:
            return 0.0
        pts = np.asarray(self.points)
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        return float(sv[-1] / np.sqrt(len(self.points)))

    def principal_reflection(self, sol: np.ndarray) -> np.ndarray:
        """Mirror a point across the best-fit line through the buffer."""
        pts = np.asarray(self.points)
        c = pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts - c, full_matrices=False)
        v = vt[0]
        R = 2.0 * np.outer(v, v) - np.eye(2)
        return c + R @ (sol - c)


def landmark_init(state: EkfState, model: EkfModel, lm: int,
                  buffer: LandmarkBuffer, sigma: float) -> tuple[EkfState, bool]:
    """Try delayed initialization from buffered (tag position, range) pairs, in place.

    Requires at least 3 entries spanning a baseline over MIN_BASELINE with
    genuine 2D spread, a well-conditioned trilateration whose fit leaves an
    RMS residual within MAX_INIT_RMS_SIGMAS, and a clear win over the
    mirror-image solution (ranges from near-collinear points admit a
    reflected fit); otherwise the buffer keeps growing.
    """
    if state.initialized[lm]:
        raise ValueError(f"landmark {lm} already initialized")
    if (len(buffer.points) < 3 or buffer.spread() <= MIN_BASELINE
            or buffer.planar_spread() < MIN_PLANAR_SPREAD):
        return state, False
    points = np.asarray(buffer.points)
    ranges = np.asarray(buffer.ranges)
    sol, cov, cond = trilaterate(points, ranges)
    if cond > MAX_TRILAT_COND or not np.all(np.isfinite(sol)):
        return state, False
    _, cost = _gauss_newton(points, ranges, sol)
    if np.sqrt(cost / len(ranges)) > MAX_INIT_RMS_SIGMAS * sigma:
        return state, False  # the fit does not explain its own ranges
    mirror, mirror_cost = _gauss_newton(points, ranges, buffer.principal_reflection(sol))
    if np.linalg.norm(mirror - sol) > 0.05 and cost > MIRROR_COST_RATIO * mirror_cost:
        return state, False  # ambiguous: the reflected fit is competitive
    state.landmarks[lm] = sol
    state.initialized[lm] = True
    c = model.lm_col(lm)
    state.P[c:c + 2, :] = 0.0
    state.P[:, c:c + 2] = 0.0
    state.P[c:c + 2, c:c + 2] = INIT_COV_INFLATION * sigma ** 2 * cov
    return state, True
