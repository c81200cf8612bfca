import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covform import se2
from covform.optimizer import random_formation
from covform.scenario import load_scenario
from helpers import from_poses

RNG = np.random.default_rng(7)

angles = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
twists = st.tuples(angles, coords, coords).map(np.array)


def random_twist(rng, max_angle=3.0):
    return np.array([rng.uniform(-max_angle, max_angle), *rng.uniform(-5, 5, 2)])


def test_exp_zero_is_identity():
    T = se2.exp(np.zeros(3))
    np.testing.assert_array_equal(T.C, np.eye(2))
    np.testing.assert_array_equal(T.r, np.zeros(2))


def test_exp_pure_rotation():
    T = se2.exp(np.array([0.4, 0.0, 0.0]))
    np.testing.assert_allclose(T.C, se2.rot2(0.4), atol=1e-15)
    np.testing.assert_array_equal(T.r, np.zeros(2))


def test_exp_quarter_turn_unit_x():
    # V(pi/2) = (2/pi) [[1, -1], [1, 1]], so V(pi/2) @ (1, 0) = (2/pi, 2/pi)
    T = se2.exp(np.array([np.pi / 2, 1.0, 0.0]))
    np.testing.assert_allclose(T.C, se2.rot2(np.pi / 2), atol=1e-15)
    np.testing.assert_allclose(T.r, np.array([2 / np.pi, 2 / np.pi]), atol=1e-15)


def test_log_identity():
    np.testing.assert_array_equal(se2.log(Pose := se2.Pose2.identity()), np.zeros(3))


@pytest.mark.parametrize("xi", [
    np.array([0.3, 1.0, -0.5]),
    np.array([np.pi / 2, 1.0, 0.0]),
    np.array([0.0, 2.0, 3.0]),
    np.array([1e-9, 0.5, -0.25]),
])
def test_log_exp_roundtrip_cases(xi):
    np.testing.assert_allclose(se2.log(se2.exp(xi)), xi, atol=1e-12)


def test_log_exp_roundtrip_bulk():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        xi = random_twist(rng)
        worst = max(worst, float(np.linalg.norm(se2.log(se2.exp(xi)) - xi)))
    assert worst < 1e-9


@given(twists)
@settings(max_examples=200, deadline=None)
def test_log_exp_roundtrip_property(xi):
    np.testing.assert_allclose(se2.log(se2.exp(xi)), xi, atol=1e-9)


def test_compose_identity():
    B = se2.exp(np.array([0.7, 1.0, 2.0]))
    out = se2.compose(se2.Pose2.identity(), B)
    np.testing.assert_array_equal(out.C, B.C)
    np.testing.assert_array_equal(out.r, B.r)


def test_inverse_identity():
    inv = se2.inverse(se2.Pose2.identity())
    np.testing.assert_array_equal(inv.C, np.eye(2))
    np.testing.assert_array_equal(inv.r, np.zeros(2))


def test_compose_inverse_gives_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = se2.exp(random_twist(rng))
        out = se2.compose(A, se2.inverse(A))
        np.testing.assert_allclose(out.C, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(out.r, np.zeros(2), atol=1e-12)


def test_rotation_angles_add():
    q = se2.exp(np.array([np.pi / 2, 0.0, 0.0]))
    half_turn = se2.compose(q, q)
    np.testing.assert_allclose(half_turn.C, se2.rot2(np.pi), atol=1e-15)


def test_wrap_angle_arrays_match_scalars():
    phi = np.concatenate([[-np.pi, np.pi, 3 * np.pi, -3 * np.pi, 0.0, -0.0],
                          np.random.default_rng(4).uniform(-20.0, 20.0, 200)])
    wrapped = se2.wrap_angle(phi)
    assert np.all((wrapped > -np.pi) & (wrapped <= np.pi))
    assert wrapped[0] == np.pi
    for p, w in zip(phi, wrapped):
        assert se2.wrap_angle(p) == w


def test_rot_many_matches_rot2():
    phi = np.random.default_rng(5).uniform(-np.pi, np.pi, 50)
    np.testing.assert_array_equal(se2._rot_many(phi), np.stack([se2.rot2(p) for p in phi]))


def test_matvec_equals_einsum():
    # the written-out two-term sums give einsum's bytes, broadcasting included
    rng = np.random.default_rng(6)
    for shape in [(1,), (7,), (24, 80), (3, 1)]:
        M = rng.standard_normal(shape + (2, 2)) * 10.0 ** rng.uniform(-3, 3, shape + (2, 2))
        v = rng.standard_normal(shape[-1:] + (2,)) * 10.0 ** rng.uniform(-3, 3, shape[-1:] + (2,))
        got = se2._matvec(M, v)
        assert got.tobytes() == np.einsum("...ij,...j->...i", M, v).tobytes()


def V_many(phi):
    """Stacked V(phi) matrices (..., 2, 2): the einsum oracle of se2._V_apply."""
    small = np.abs(phi) < se2.SMALL_ANGLE
    if small.any():
        safe = np.where(small, 1.0, phi)
        h = np.sin(safe / 2.0)
        a = np.where(small, 1.0 - phi * phi / 6.0, np.sin(safe) / safe)
        b = np.where(small, phi / 2.0, 2.0 * h * h / safe)
    else:  # the same values without the series branch
        h = np.sin(phi / 2.0)
        a = np.sin(phi) / phi
        b = 2.0 * h * h / phi
    out = np.empty(phi.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = a
    out[..., 0, 1] = -b
    out[..., 1, 0] = b
    return out


def V_many_series_everywhere(phi):
    """V_many with the series branch always selected per entry: the oracle
    for its shortcut when no angle is small."""
    small = np.abs(phi) < se2.SMALL_ANGLE
    safe = np.where(small, 1.0, phi)
    h = np.sin(safe / 2.0)
    a = np.where(small, 1.0 - phi * phi / 6.0, np.sin(safe) / safe)
    b = np.where(small, phi / 2.0, 2.0 * h * h / safe)
    return np.stack([np.stack([a, -b], -1), np.stack([b, a], -1)], -2)


@pytest.mark.parametrize("with_small", [False, True])
def test_V_apply_equals_per_entry_branch(with_small):
    rng = np.random.default_rng(7)
    phi = rng.uniform(-4.0, 4.0, 200) * 10.0 ** rng.integers(-6, 1, 200)
    rho = rng.uniform(-5.0, 5.0, (200, 2))
    if with_small:
        phi[::7] = rng.uniform(-1e-8, 1e-8, phi[::7].shape)
        phi[3] = 0.0
    assert np.any(np.abs(phi) < se2.SMALL_ANGLE) == with_small
    assert V_many(phi).tobytes() == V_many_series_everywhere(phi).tobytes()
    want = np.einsum("...ij,...j->...i", V_many_series_everywhere(phi), rho)
    got = se2._V_apply(phi, rho, np.sin(phi / 2.0), np.sin(phi))
    assert got.tobytes() == want.tobytes()


def oplus_many_einsum(x, dx):
    """se2.oplus_many with V(phi) rho taken by einsum on V_many: its oracle."""
    d = dx.reshape(dx.shape[0], -1, 3)
    phi = d[..., 0]
    t = np.einsum("...ij,...j->...i", V_many(phi), d[..., 1:])
    C = np.einsum("nij,bnjk->bnik", x.C, se2._rot_many(phi))
    r = x.r + np.einsum("nij,bnj->bni", x.C, t)
    if x._ops + 1 > se2.RENORMALIZE_EVERY:
        return se2._rot_many(np.arctan2(C[..., 1, 0], C[..., 0, 0])), r, 0
    return C, r, x._ops + 1


@pytest.mark.parametrize("preset", ["sim5", "bridge7"])
def test_oplus_many_equals_einsum_V_oracle(preset):
    # the finite-difference probe stack of random states (its translation
    # probes have phi = 0, the series branch), then random steps with small
    # and zero angles mixed in, on fresh and re-projecting states
    n = load_scenario(preset).team.n_robots
    rng = np.random.default_rng(23)
    for t in range(20):
        x = random_formation(n, rng)
        if t % 2:
            x = se2.FormationState(x.C + rng.normal(0.0, 1e-9, x.C.shape), x.r,
                                   ops=se2.RENORMALIZE_EVERY)
        probes = np.zeros((x.dim, 2, x.dim))
        probes[np.arange(x.dim), :, np.arange(x.dim)] = (1e-6, -1e-6)
        steps = rng.uniform(-1.0, 1.0, (16, x.dim)) * 10.0 ** rng.integers(-6, 1, (16, 1))
        phi = steps[:, 0::3]
        small = rng.random(phi.shape) < 0.3
        phi[small] = rng.choice([0.0, 1e-9, -3e-8], size=np.count_nonzero(small))
        for dx in (probes.reshape(2 * x.dim, x.dim), steps):
            C, r, ops = se2.oplus_many(x, dx)
            C_want, r_want, ops_want = oplus_many_einsum(x, dx)
            assert ops == ops_want == (0 if t % 2 else 1)
            assert C.tobytes() == C_want.tobytes() and r.tobytes() == r_want.tobytes()


def test_orthonormality_survives_long_compose_chains():
    rng = np.random.default_rng(99)
    T = se2.Pose2.identity()
    for _ in range(10_000):
        T = se2.compose(T, se2.exp(random_twist(rng, max_angle=0.5)))
    np.testing.assert_allclose(T.C.T @ T.C, np.eye(2), atol=1e-9)
    assert abs(np.linalg.det(T.C) - 1.0) < 1e-9


def test_adjoint_identity_relation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        T = se2.exp(random_twist(rng))
        xi = random_twist(rng, max_angle=0.2) * 0.01
        lhs = se2.compose(T, se2.exp(xi))
        rhs = se2.compose(se2.exp(se2.adjoint(T) @ xi), T)
        np.testing.assert_allclose(lhs.matrix(), rhs.matrix(), atol=1e-5)


def test_exp_step_matches_compose_per_pose():
    rng = np.random.default_rng(11)
    ang = rng.uniform(-np.pi, np.pi, 6)
    pos = rng.uniform(-5, 5, (6, 2))
    xi = np.stack([random_twist(rng) for _ in range(6)])
    xi[4, 0] = 1e-9   # series branch of V
    xi[5] = 0.0
    expected = [se2.compose(se2.Pose2(se2.rot2(a), p), se2.exp(x)) for a, p, x in zip(ang, pos, xi)]
    ang_new, pos_new = ang.copy(), pos.copy()
    t = se2.exp_step(ang_new, pos_new, xi, (np.cos(ang), np.sin(ang)))
    for k, T in enumerate(expected):
        np.testing.assert_allclose(se2.rot2(ang_new[k]), T.C, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pos_new[k], T.r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(t[k], se2.exp(xi[k]).r, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(ang_new, ang + xi[:, 0])


def exp_step_einsum(ang, pos, xi):
    """se2.exp_step through the stacked V and rotation matrices and einsum,
    in place: the oracle for its written-out products."""
    phi = xi[:, 0]
    t = np.einsum("nij,nj->ni", V_many(phi), xi[:, 1:])
    pos += np.einsum("nij,nj->ni", se2._rot_many(ang), t)
    ang += phi
    return t


@pytest.mark.parametrize("n", [2, 5, 64])
@pytest.mark.parametrize("with_small", [False, True])
def test_exp_step_equals_einsum_oracle(n, with_small):
    rng = np.random.default_rng(70 + n + with_small)
    for _ in range(50):
        ang = rng.uniform(-4.0, 4.0, n)
        pos = rng.uniform(-5.0, 5.0, (n, 2))
        xi = rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** rng.integers(-4, 1, (n, 1))
        xi[:, 0] = np.copysign(np.maximum(np.abs(xi[:, 0]), 1e-5), xi[:, 0])
        if with_small:
            k = rng.choice(n, size=max(1, n // 4), replace=False)
            xi[k, 0] = rng.choice([0.0, 1e-9, -3e-8], size=k.shape)
        ang_new, pos_new = ang.copy(), pos.copy()
        t = se2.exp_step(ang_new, pos_new, xi, (np.cos(ang), np.sin(ang)))
        t_want = exp_step_einsum(ang, pos, xi)
        np.testing.assert_array_equal(ang_new, ang)
        np.testing.assert_array_equal(pos_new, pos)
        np.testing.assert_array_equal(t, t_want)


class TestFormationState:
    def make(self, n=4, seed=0):
        rng = np.random.default_rng(seed)
        return from_poses([se2.exp(random_twist(rng)) for _ in range(n - 1)])

    def test_identity_state(self):
        x = se2.FormationState.identity(4)
        assert x.n_robots == 4
        assert x.dim == 9
        np.testing.assert_array_equal(x.positions(), np.zeros((4, 2)))

    def test_pose_lookup_robot1_is_identity(self):
        x = self.make()
        np.testing.assert_array_equal(x.pose(1).matrix(), np.eye(3))

    def test_unknown_robot_id(self):
        x = self.make(n=3)
        with pytest.raises(ValueError, match="unknown robot id"):
            x.pose(7)

    def test_oplus_zero_is_identity_map(self):
        x = self.make()
        y = se2.oplus(x, np.zeros(x.dim))
        np.testing.assert_array_equal(y.r, x.r)
        np.testing.assert_allclose(y.C, x.C, atol=1e-15)

    def test_oplus_translation_at_identity(self):
        x = se2.FormationState.identity(2)
        y = se2.oplus(x, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(y.r[0], np.array([1.0, 0.0]), atol=1e-15)

    def test_oplus_dimension_mismatch(self):
        x = self.make(n=3)
        with pytest.raises(ValueError, match="shape"):
            se2.oplus(x, np.zeros(5))

    def test_oplus_first_order_inverse(self):
        # x (+) dx (+) -dx returns to x only to first order; the residual
        # measured through log must shrink quadratically with |dx|.
        x = self.make(n=3, seed=8)
        rng = np.random.default_rng(2)
        direction = rng.standard_normal(x.dim)
        direction /= np.linalg.norm(direction)
        residuals = []
        for h in (1e-2, 1e-3):
            dx = h * direction
            y = se2.oplus(se2.oplus(x, dx), -dx)
            res = 0.0
            for p in range(2, x.n_robots + 1):
                rel = se2.compose(se2.inverse(x.pose(p)), y.pose(p))
                res += float(np.linalg.norm(se2.log(rel)) ** 2)
            residuals.append(np.sqrt(res))
        # quadratic scaling: shrinking h by 10 shrinks the residual ~100x
        assert residuals[1] < 2e-2 * residuals[0] + 1e-14
        assert residuals[0] < 10 * 1e-4

    def test_relative_position_definition(self):
        poses = [se2.Pose2(np.eye(2), np.array([3.0, 0.0])),
                 se2.Pose2(np.eye(2), np.array([1.0, 1.0]))]
        x = from_poses(poses)
        np.testing.assert_array_equal(se2.relative_position(x, 2, 1), np.array([3.0, 0.0]))
        np.testing.assert_array_equal(se2.relative_position(x, 2, 3), np.array([2.0, -1.0]))
        np.testing.assert_array_equal(se2.relative_position(x, 2, 2), np.zeros(2))

    def test_relative_position_antisymmetry(self):
        x = self.make(n=5, seed=11)
        for p in range(1, 6):
            for q in range(1, 6):
                np.testing.assert_array_equal(
                    se2.relative_position(x, p, q), -se2.relative_position(x, q, p))

    def test_positions_and_headings_shapes(self):
        x = self.make(n=5)
        assert x.positions().shape == (5, 2)
        assert x.headings().shape == (5,)
        assert x.headings()[0] == 0.0

    def test_immutable(self):
        x = self.make()
        with pytest.raises(AttributeError):
            x.r = np.zeros((3, 2))
        with pytest.raises(ValueError):
            x.r[0, 0] = 5.0


def test_pose_and_state_pickle_roundtrip():
    import pickle

    rng = np.random.default_rng(44)
    T = se2.exp(random_twist(rng))
    T2 = pickle.loads(pickle.dumps(T))
    np.testing.assert_array_equal(T.C, T2.C)
    np.testing.assert_array_equal(T.r, T2.r)

    x = from_poses([se2.exp(random_twist(rng)) for _ in range(3)])
    x2 = pickle.loads(pickle.dumps(x))
    np.testing.assert_array_equal(x.C, x2.C)
    np.testing.assert_array_equal(x.r, x2.r)
