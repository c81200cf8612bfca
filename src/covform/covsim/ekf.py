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
    enters as dt^2 * vel_cov on the robot's own block.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    xi = dt * u
    t = exp_step(state.ang, state.pos, xi)
    # F_p = Ad(exp(-xi_p)) under the [phi, rho] ordering: exp(-xi_p) has
    # rotation Cinv = R(-phi_p) and translation rinv = -Cinv t_p
    Cinv = _rot_many(-xi[:, 0])
    rinv = -np.einsum("nij,nj->ni", Cinv, t)
    blk = np.arange(3 * model.n_robots).reshape(-1, 3)
    rows, cols = blk[:, :, None], blk[:, None, :]
    F = np.eye(model.dim)
    F[blk[:, 1], blk[:, 0]] = rinv[:, 1]
    F[blk[:, 2], blk[:, 0]] = -rinv[:, 0]
    F[rows[:, 1:], cols[:, :, 1:]] = Cinv
    state.P = F @ state.P @ F.T
    state.P[rows, cols] += (dt * dt) * vel_cov
    return state


def _retract(state: EkfState, model: EkfModel, delta: np.ndarray) -> None:
    """Apply an error-state correction: poses by right exp, landmarks additively."""
    m = 3 * model.n_robots
    exp_step(state.ang, state.pos, delta[:m].reshape(-1, 3))
    state.landmarks += delta[m:].reshape(-1, 2)


def _fold_rows(state: EkfState, model: EkfModel, H: np.ndarray, nu: np.ndarray,
               sigmas: np.ndarray, gate: float | None) -> int:
    """Fold independent rows in one scalar update at a time, in place, and
    retract the summed correction once; returns how many rows the gate
    dropped. With no row gated this is the joint update over all rows."""
    P = state.P
    delta = np.zeros(model.dim)
    n_rejected = 0
    for h, v, sigma in zip(H, nu, sigmas):
        Ph = P @ h
        s = h @ Ph + sigma * sigma
        v -= h @ delta
        if gate is not None and not v * v / s <= gate:
            n_rejected += 1
            continue
        delta += Ph * (v / s)
        P -= np.outer(Ph, Ph) / s
    if n_rejected < len(nu):
        _retract(state, model, delta)
    return n_rejected


def _measurement_rows(state: EkfState, model: EkfModel, rr_idx: np.ndarray,
                      lm_edges: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack the selected robot-robot rows plus the given (tag, landmark) rows.

    Every row ranges from a tag to either a second tag (the first E rows)
    or a landmark. Returns (H, predicted ranges, validity mask); rows with
    a degenerate predicted range are flagged invalid instead of raising.
    """
    idx = model.index
    lm_tag, lm = np.asarray(lm_edges, dtype=np.intp).reshape(-1, 2).T
    H, rng, unit, valid = range_rows(idx, _rot_many(state.ang), state.pos,
                                     np.concatenate([idx.edge_i[rr_idx], lm_tag]),
                                     idx.edge_j[rr_idx], state.landmarks[lm])
    e = rr_idx.shape[0]
    H_lm = np.zeros((H.shape[0], 2 * model.n_landmarks))
    rows = np.arange(e, H.shape[0])
    H_lm[rows, 2 * lm] = -unit[e:, 0]
    H_lm[rows, 2 * lm + 1] = -unit[e:, 1]
    return np.hstack([H, H_lm]), rng, valid


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
    H, zhat, valid = _measurement_rows(state, model, rr_idx, lm_edges)
    nu = np.concatenate([z_rr, z_lm]) - zhat
    sigmas = np.concatenate([model.index.sigma[rr_idx], np.full(len(lm_edges), lm_sigma)])
    return state, _fold_rows(state, model, H[valid], nu[valid], sigmas[valid], gate)


def ekf_update_gps(state: EkfState, model: EkfModel, measured: np.ndarray,
                   sigma: float, gate: float = GPS_GATE_2DOF) -> tuple[EkfState, bool]:
    """Position fix on robot 1, in place; gated on the joint 2-dof innovation."""
    H = np.zeros((2, model.dim))
    H[:, 1:3] = rot2(state.ang[0])
    nu = np.asarray(measured, dtype=np.float64) - state.pos[0]
    S = H @ state.P @ H.T + np.eye(2) * sigma ** 2
    if float(nu @ np.linalg.solve(S, nu)) > gate:
        return state, False
    _fold_rows(state, model, H, nu, np.array([sigma, sigma]), None)
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
