"""Error-state EKF-SLAM over global robot poses and static landmarks.

State: N robot poses (heading + position, right-perturbation error states
ordered [phi, x, y] per robot) followed by L landmark positions. The
measurement rows are the closed-form range rows of ``ranging.range_rows``,
lifted to the global frame where robot 1 is a state like any other; GPS
anchors robot 1.

Landmarks enter by delayed initialization: ranges buffer until a
trilateration over sufficiently spread tag positions is well conditioned,
then the solution and its (inflated) normal-equation covariance are
inserted into the state.

The caller owns the state: predict, the updates and landmark init change it
in place and return the same object. Every update is a sequence of scalar
updates, one per measurement row, which with independent (diagonal) noise
gives the joint update exactly.

"In place" means queued until read for the mean. An update changes P at
once, but its correction to the mean waits in the state's pending rows; the
next predict applies every queued correction and then its motion in one
pass, and so does any read of ``ang``, ``pos`` or ``landmarks``. The result
is the per-event retractions, bit for bit. The updates themselves read the
few poses they linearize at through peeks of the queued mean.

An event touches a handful of state entries, so its cost is per-call
overhead: each row is linearized from Python floats on tables the model
builds once, with the operations of ``range_rows`` in its order (so bit for
bit), then folded in by a few numpy calls on the columns it touches.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from covform.ranging import DEGENERATE_RANGE, _edge_index, _EdgeIndex
from covform.se2 import SMALL_ANGLE, _V_apply
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
# corrections an EkfState holds back before it applies them all at once
QUEUE_CAP = 32
_XY = np.arange(2)
_GPS_COLS = _XY + 1  # robot 1's position columns


def _table():
    """A model field derived in ``__post_init__``, left out of init, repr and ==."""
    return field(init=False, repr=False, compare=False)


@dataclass
class EkfModel:
    """The range model's tag/edge table plus the landmark count of one filter setup.

    Built once per filter, it also holds the per-event lookups as Python
    lists, so that each measurement row is linearized from plain floats:
    each tag's robot, body offset and rotation lever; each edge's endpoint
    tags, noise and six state columns; the five state columns of every
    (tag, landmark) row; and the index of the N robot blocks of P.
    """

    index: _EdgeIndex
    n_landmarks: int
    tag_robot: list[int] = _table()
    tag_body: list[list[float]] = _table()
    tag_perp: list[list[float]] = _table()
    edge_tags: list[tuple[int, int]] = _table()
    edge_sigma: list[float] = _table()
    edge_cols: list[np.ndarray] = _table()
    lm_cols: list[list[np.ndarray]] = _table()   # [tag][landmark]
    robot_blocks: tuple[np.ndarray, np.ndarray] = _table()

    def __post_init__(self) -> None:
        idx = self.index
        self.tag_robot = idx.tag_robot.tolist()
        self.tag_body = idx.tag_body.tolist()
        self.tag_perp = idx.tag_perp.tolist()
        self.edge_tags = list(zip(idx.edge_i.tolist(), idx.edge_j.tolist()))
        self.edge_sigma = idx.sigma.tolist()
        self.edge_cols = list(np.concatenate([idx.tag_cols[idx.edge_i],
                                              idx.tag_cols[idx.edge_j]], axis=1))
        self.lm_cols = [[np.concatenate([tag_cols, self.lm_col(lm) + _XY])
                         for lm in range(self.n_landmarks)] for tag_cols in idx.tag_cols]
        blk = np.arange(3 * self.n_robots).reshape(-1, 3)
        self.robot_blocks = (blk[:, :, None], blk[:, None, :])

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

    P changes in place at every event. The mean's corrections are queued
    instead: an update writes its correction to the next row of a pending
    buffer of QUEUE_CAP rows, and the next ``ekf_predict`` applies all of
    them and then its motion in one pass (a full buffer is applied on the
    spot). Reading ``ang``, ``pos`` or ``landmarks`` applies the queue
    first, so they always read the current mean; their arrays stay the
    live mean until the next update queues a correction. The updates
    linearize at a few poses only, and read them through peeks:
    Python-float replays of one robot's (or landmark's) pending rows,
    cached per robot, extended as rows are queued, and dropped whenever the
    mean itself is rewritten.
    """

    def __init__(self, ang: np.ndarray, pos: np.ndarray, landmarks: np.ndarray,
                 initialized: np.ndarray, P: np.ndarray) -> None:
        self._ang = np.array(ang, dtype=np.float64)          # (N,)
        n, L = self._ang.shape[0], len(landmarks)
        # robot positions (N,2), then landmark positions (L,2)
        self._xy = np.concatenate([np.reshape(pos, (n, 2)), np.reshape(landmarks, (L, 2))],
                                  dtype=np.float64)
        self.initialized = initialized                       # (L,) bool
        self.P = P
        self._pending = np.empty((QUEUE_CAP, 3 * n + 2 * L))
        self._q = 0
        self._peeks: dict = {}  # robot p at key p, landmark l at key N + l
        self._settled: tuple[np.ndarray, np.ndarray] | None = None
        # _advance's work rows, sized for a full queue plus the motion
        self._heading = np.empty((3 * QUEUE_CAP + 2, n))
        self._trig = np.empty((4 * QUEUE_CAP + 3, n))
        self._step = np.empty((QUEUE_CAP + 1, n, 2))
        self._acc = np.empty((QUEUE_CAP + 2, n + L, 2))

    @classmethod
    def create(cls, model: EkfModel, ang: np.ndarray, pos: np.ndarray,
               att_sigma: float, pos_sigma: float) -> "EkfState":
        L = model.n_landmarks
        P = np.diag(np.concatenate([
            np.tile([att_sigma ** 2, pos_sigma ** 2, pos_sigma ** 2], model.n_robots),
            np.full(2 * L, _UNINIT_PRIOR)]))
        return cls(ang, pos, np.zeros((L, 2)), np.zeros(L, dtype=bool), P)

    def _flush(self) -> None:
        # the caller may write through what it reads, so cached peeks go too
        if self._q:
            self._advance()
        self._peeks.clear()

    @property
    def ang(self) -> np.ndarray:
        """Robot headings (N,)."""
        self._flush()
        return self._ang

    @property
    def pos(self) -> np.ndarray:
        """Robot positions (N,2)."""
        self._flush()
        return self._xy[:self._ang.shape[0]]

    @property
    def landmarks(self) -> np.ndarray:
        """Landmark positions (L,2), meaningless until initialized."""
        self._flush()
        return self._xy[self._ang.shape[0]:]

    def tag_position(self, model: EkfModel, tag: int) -> np.ndarray:
        """The world position of one tag, from a peek: bit for bit
        ``ranging.world_tags`` at the current mean."""
        c, s, x, y = self._peek(model.tag_robot[tag])
        bx, by = model.tag_body[tag]
        return np.array([c * bx - s * by + x, s * bx + c * by + y])

    def last_posterior(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ang, pos, landmarks) just before the last ``ekf_predict``'s
        motion, with every correction queued before it applied: the mean the
        previous step's updates left. Views, valid until the queue is next
        applied."""
        ang, xy = self._settled
        n = ang.shape[0]
        return ang, xy[:n], xy[n:]

    def _next_row(self) -> np.ndarray:
        """The pending row the next correction goes to; a full queue is applied
        first. The correction counts once the caller raises ``_q``."""
        if self._q == QUEUE_CAP:
            self._advance()
        return self._pending[self._q]

    def _peek(self, p: int) -> tuple[float, float, float, float]:
        """(cos, sin, x, y) of robot p with the queued corrections applied.

        This is ``exp_step``'s arithmetic on one robot in Python floats, whose
        math.sin and math.cos round as numpy's do: the scalar twin of
        ``se2._V_apply``, its series below SMALL_ANGLE included, which must
        change with it. It replays only the rows the cached peek has not
        seen yet.
        """
        q = self._q
        hit = self._peeks.get(p)
        if hit is not None and hit[0] == q:
            return hit[1]
        if hit is None:
            k, ang = 0, self._ang.item(p)
            c, s, x, y = math.cos(ang), math.sin(ang), self._xy.item(p, 0), self._xy.item(p, 1)
        else:
            k, (c, s, x, y), ang = hit
        for phi, rx, ry in self._pending[k:q, 3 * p:3 * p + 3].tolist():
            h, sin_phi = math.sin(phi * 0.5), math.sin(phi)
            if abs(phi) >= SMALL_ANGLE:
                a, b = sin_phi / phi, (h + h) * h / phi
            else:
                a, b = 1.0 - phi * phi / 6.0, phi * 0.5
            tx, ty = a * rx - b * ry, b * rx + a * ry
            x += c * tx - s * ty
            y += s * tx + c * ty
            ang += phi
            c, s = math.cos(ang), math.sin(ang)
        pose = (c, s, x, y)
        self._peeks[p] = (q, pose, ang)
        return pose

    def _peek_landmark(self, lm: int) -> tuple[float, float]:
        """(x, y) of landmark lm with the queued corrections applied."""
        q, row = self._q, self._ang.shape[0] + lm
        hit = self._peeks.get(row)
        if hit is not None and hit[0] == q:
            return hit[1]
        k, (x, y) = hit if hit is not None else (0, self._xy[row].tolist())
        col = 3 * self._ang.shape[0] + 2 * lm
        for dx, dy in self._pending[k:q, col:col + 2].tolist():
            x += dx
            y += dy
        self._peeks[row] = (q, (x, y))
        return x, y

    def _advance(self, phi: np.ndarray | None = None, t: np.ndarray | None = None) -> None:
        """Apply the q queued corrections and then, if given, one motion step
        of heading increments phi (N,) and body translations t (N,2).

        Step k < q is the right-exp retraction ``exp_step`` makes of pending
        row k, its translation V(phi) rho from ``se2._V_apply``; the motion
        is one more step whose translation is given. Headings, positions and
        landmarks are running sums over the steps, and np.add.accumulate adds
        in order, so row k of each sum is the mean after k steps one at a
        time, bit for bit. One sine pass covers V's sin(phi/2) and sin(phi)
        and the headings' sines, and one cosine pass the cosines.
        """
        q, n, L = self._q, self._ang.shape[0], self._xy.shape[0] - self._ang.shape[0]
        r = q + (phi is not None)  # pose steps
        xi = self._pending[:q, :3 * n].reshape(q, n, 3)  # rows [phi, rho_x, rho_y]
        # the headings (the base, then one increment per step), then the
        # corrections' phi/2 and phi, for one sine pass over all of them
        heading = self._heading[:r + 1]
        half, whole = self._heading[r + 1:r + 1 + q], self._heading[r + 1 + q:r + 1 + 2 * q]
        whole[...] = xi[..., 0]
        np.multiply(whole, 0.5, out=half)
        heading[0] = self._ang
        heading[1:q + 1] = whole
        if phi is not None:
            heading[r] = phi
        np.add.accumulate(heading, axis=0, out=heading)
        trig = self._trig
        np.sin(self._heading[:r + 1 + 2 * q], out=trig[r:2 * r + 1 + 2 * q])
        np.cos(heading[:r], out=trig[:r])
        cs = trig[:2 * r].reshape(2, r, n)  # cos, sin of the heading each step starts from
        step = self._step[:r]
        sines = trig[2 * r + 1:2 * r + 1 + 2 * q]  # sin(phi/2), then sin(phi)
        step[:q] = _V_apply(whole, xi[..., 1:], sines[:q], sines[q:])
        if phi is not None:
            step[q] = t
        rot = cs[..., None] * step
        acc = self._acc[:r + 1]  # positions and landmarks: the base, then the increments
        acc[0] = self._xy
        np.subtract(rot[0, ..., 0], rot[1, ..., 1], out=acc[1:, :n, 0])
        np.add(rot[1, ..., 0], rot[0, ..., 1], out=acc[1:, :n, 1])
        acc[1:q + 1, n:] = self._pending[:q, 3 * n:].reshape(q, L, 2)
        if phi is not None:
            acc[r, n:] = -0.0  # landmarks are static, and x + -0.0 is x for every x
        np.add.accumulate(acc, axis=0, out=acc)
        self._ang[...] = heading[r]
        self._xy[...] = acc[r]
        self._settled = (heading[q], acc[q]) if phi is not None else None
        self._q = 0
        self._peeks.clear()


def transitions(u: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-robot motion T <- T exp(dt u) of commands u (..., 3), over any
    leading axes: heading increments phi (...), body-frame translations
    t = V(phi) rho (..., 2) and error-state transitions Ad(exp(-dt u)) (..., 3, 3).

    They depend on the command alone, never on the filter state, so a replay
    builds them for a block of steps at once. Each entry is the value the
    per-step ``exp_step`` gives: both take V(phi) rho from ``se2._V_apply``.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    xi = dt * u
    phi = xi[..., 0]
    t = _V_apply(phi, xi[..., 1:], np.sin(phi * 0.5), np.sin(phi))
    tx, ty = t[..., 0], t[..., 1]
    # Ad(exp(-xi)) under the [phi, rho] ordering: exp(-xi) has rotation
    # Cinv = R(-phi) and translation rinv = -Cinv t
    c, s = np.cos(-phi), np.sin(-phi)
    F = np.zeros(phi.shape + (3, 3))
    F[..., 0, 0] = 1.0
    F[..., 1, 0] = -(s * tx + c * ty)
    F[..., 2, 0] = c * tx - s * ty
    F[..., 1, 1] = F[..., 2, 2] = c
    F[..., 1, 2] = -s
    F[..., 2, 1] = s
    return phi, t, F


def ekf_predict(state: EkfState, model: EkfModel, phi: np.ndarray, t: np.ndarray,
                F: np.ndarray, Q: np.ndarray) -> EkfState:
    """Propagate every robot by one step of ``transitions``, in place; landmarks
    are static.

    phi (N,), t (N,2) and F (N,3,3) are one step's rows of ``transitions``;
    process noise Q = dt^2 * vel_cov enters on each robot's own block. The
    transition is the identity off its N robot blocks, so F P F^T applies
    the blocks to the robot rows of P and then to its robot columns.

    The mean first takes the corrections the updates since the last predict
    queued, then the motion, in one pass.
    """
    state._advance(phi, t)
    n, m = model.n_robots, 3 * model.n_robots
    P = state.P
    P[:m] = (F @ P[:m].reshape(n, 3, -1)).reshape(m, -1)
    P[:, :m] = (F @ P[:, :m].T.reshape(n, 3, -1)).reshape(m, -1).T
    P[model.robot_blocks] += Q
    return state


def _fold_rows(state: EkfState, cols: Sequence[np.ndarray], vals: Sequence[np.ndarray],
               nu: Sequence[float], sigmas: Sequence[float], gate: float | None) -> int:
    """Fold independent rows in one scalar update at a time, in place, and
    queue the summed correction as one pending row of the state (poses
    retract by right exp, landmarks additively); returns how many rows the
    gate dropped. Row k is vals[k] on the state columns cols[k] with innovation
    nu[k] and noise sigmas[k]; only those columns of P are read to form it.
    With no row gated this is the joint update over all rows."""
    P = state.P
    delta = None  # the summed correction, once a row is folded in
    n_rejected = 0
    for c, h, v, sigma in zip(cols, vals, nu, sigmas):
        Ph = P[:, c] @ h
        s = h @ Ph[c] + sigma * sigma
        if delta is not None:
            v -= h @ delta[c]
        if gate is not None and not v * v / s <= gate:
            n_rejected += 1
            continue
        if delta is None:
            delta = np.multiply(Ph, v / s, out=state._next_row())
        else:
            delta += Ph * (v / s)
        P -= Ph[:, None] * Ph / s
    if delta is not None:
        state._q += 1
    return n_rejected


def _range_unit(dx: float, dy: float) -> tuple[float, float, float, bool]:
    """(range, unit x, unit y, valid) of a tag-to-endpoint offset; a range not
    above DEGENERATE_RANGE is invalid and has a zero unit vector."""
    rng = math.sqrt(dx * dx + dy * dy)
    if rng > DEGENERATE_RANGE:
        return rng, dx / rng, dy / rng, True
    return rng, 0.0, 0.0, False


def _measurement_rows(state: EkfState, model: EkfModel, rr_idx: Sequence[int],
                      lm_edges: Sequence[tuple[int, int]],
                      ) -> tuple[list[np.ndarray], list[np.ndarray], list[float], list[bool]]:
    """The given robot-robot rows (edge indices) plus (tag, landmark) rows.

    Every row ranges from a tag to either a second tag (the first
    len(rr_idx) rows) or a landmark. Returns (cols, vals, predicted ranges,
    validity): row k is vals[k] on the state columns cols[k], the six
    [phi, x, y] columns of both endpoint robots for a robot-robot row, and
    the tag robot's three plus the landmark's two for a landmark row. Rows
    with a degenerate predicted range are flagged invalid instead of
    raising. Every entry equals the batched ``ranging.range_rows`` bit for bit.
    The endpoints are read through peeks, so no queued correction is applied.
    """
    peek, robot, body, perp = state._peek, model.tag_robot, model.tag_body, model.tag_perp

    def place(tag: int) -> tuple[float, ...]:
        # heading cos/sin, world position and rotation lever C (S a) of a tag
        c, s, rx, ry = peek(robot[tag])
        (bx, by), (ax, ay) = body[tag], perp[tag]
        return c, s, c * bx - s * by + rx, s * bx + c * by + ry, c * ax - s * ay, s * ax + c * ay

    def block(ux: float, uy: float, c: float, s: float, lx: float, ly: float) -> list[float]:
        # one endpoint's [phi, x, y] entries: u . lever and u^T C
        return [ux * lx + uy * ly, ux * c + uy * s, uy * c - ux * s]

    cols, vals, zhat, valid = [], [], [], []
    for k in rr_idx:
        i, j = model.edge_tags[k]
        ci, si, xi, yi, lxi, lyi = place(i)
        cj, sj, xj, yj, lxj, lyj = place(j)
        rng, ux, uy, ok = _range_unit(xi - xj, yi - yj)
        cols.append(model.edge_cols[k])
        vals.append(np.array(block(ux, uy, ci, si, lxi, lyi) + block(-ux, -uy, cj, sj, lxj, lyj)))
        zhat.append(rng)
        valid.append(ok)
    for tag, lm in lm_edges:
        c, s, x, y, lx, ly = place(tag)
        mx, my = state._peek_landmark(lm)
        rng, ux, uy, ok = _range_unit(x - mx, y - my)
        cols.append(model.lm_cols[tag][lm])
        vals.append(np.array(block(ux, uy, c, s, lx, ly) + [-ux, -uy]))
        zhat.append(rng)
        valid.append(ok)
    return cols, vals, zhat, valid


def ekf_update_ranges(state: EkfState, model: EkfModel, rr_idx: np.ndarray,
                      z_rr: np.ndarray, lm_edges: list[tuple[int, int]], z_lm: np.ndarray,
                      lm_sigma: float, gate: float = RANGE_GATE_1DOF) -> tuple[EkfState, int]:
    """Update in place on selected robot-robot edges plus landmark rows.

    rr_idx indexes into the model's edge arrays. The rows are linearized
    at the incoming state and folded in one at a time; each row is gated on
    its normalized innovation squared against the covariance the rows
    before it left, and dropped and counted if it exceeds the gate or is
    not a number. Rows with a degenerate predicted range are skipped
    uncounted. Returns (state, number rejected).
    """
    cols, vals, zhat, valid = _measurement_rows(state, model, rr_idx, lm_edges)
    nu = [float(z) - h for z, h in zip(chain(z_rr, z_lm), zhat)]
    sigmas = [model.edge_sigma[k] for k in rr_idx] + [lm_sigma] * len(lm_edges)
    if not all(valid):
        cols, vals, nu, sigmas = ([row for row, ok in zip(rows, valid) if ok]
                                  for rows in (cols, vals, nu, sigmas))
    return state, _fold_rows(state, cols, vals, nu, sigmas, gate)


def ekf_update_gps(state: EkfState, model: EkfModel, measured: np.ndarray,
                   sigma: float, gate: float = GPS_GATE_2DOF) -> tuple[EkfState, bool]:
    """Position fix on robot 1, in place; gated on the joint 2-dof innovation.

    A fix whose normalized innovation squared exceeds the gate or is not a
    number is rejected and leaves the state as it was, and so is one whose
    2x2 innovation covariance has no positive determinant (it has no NIS).
    """
    c, s, x, y = state._peek(0)
    n0, n1 = nu = [float(measured[0]) - x, float(measured[1]) - y]
    # nu^T S^-1 nu for the 2x2 innovation covariance S = (R P_xy) R^T + sigma^2 I,
    # written out
    (p00, p01), (p10, p11) = state.P[1:3, 1:3].tolist()
    q00, q01, q10, q11 = c * p00 - s * p10, c * p01 - s * p11, s * p00 + c * p10, s * p01 + c * p11
    var = sigma * sigma
    s00, s01 = q00 * c - q01 * s + var, q00 * s + q01 * c
    s10, s11 = q10 * c - q11 * s, q10 * s + q11 * c + var
    det = s00 * s11 - s01 * s10
    if not det > 0 or not (s11 * n0 * n0 - (s01 + s10) * n0 * n1 + s00 * n1 * n1) / det <= gate:
        return state, False
    R = np.array([[c, -s], [s, c]])  # rot2 of the heading
    _fold_rows(state, (_GPS_COLS, _GPS_COLS), R, nu, (sigma, sigma), None)
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
