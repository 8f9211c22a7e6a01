import numpy as np
import pytest

from blockaloha import (
    BlockShape,
    PlantModel,
    control_sequence,
    controllability_index,
    controllability_matrix,
    default_plant,
    estimate_state,
    run_block,
)
from oracles import max_run


def scalar_plant(a=2.0, x_des=0.0):
    return PlantModel(A=[[a]], B=[[1.0]], x_des=[x_des], v=1)


def random_consistent_plant(rng, n, m):
    """Random controllable pair with x_des reachable by a steady-state input."""
    while True:
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        v = controllability_index(A, B)
        if v is None:
            continue
        eye_minus = np.eye(n) - A
        if abs(np.linalg.det(eye_minus)) < 1e-6:
            continue
        u_bar = rng.normal(size=m)
        x_des = np.linalg.solve(eye_minus, B @ u_bar)
        if np.max(np.abs(x_des)) > 50:
            continue
        return PlantModel(A=A, B=B, x_des=x_des, v=v)


def test_rank_deficient_pair_rejected():
    with pytest.raises(ValueError):
        PlantModel(A=np.eye(2), B=np.zeros((2, 1)), x_des=[0, 0], v=2)
    with pytest.raises(ValueError):
        # double integrator needs two steps
        PlantModel(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.0], [1.0]], x_des=[0, 0], v=1)
    # a controllability index that is not an integer >= 1 is a ValueError, as in BlockShape
    for v in (2.5, 0, "2", None):
        with pytest.raises(ValueError):
            PlantModel(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.0], [1.0]], x_des=[0, 0], v=v)
        with pytest.raises(ValueError):
            default_plant(v)


def test_controllability_matrix_layout():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    psi = controllability_matrix(A, B, 2)
    assert np.allclose(psi, np.column_stack([A @ B, B]))


def test_controllability_index_values():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    assert controllability_index(A, B) == 2
    assert controllability_index(np.eye(2), np.eye(2)) == 1
    assert controllability_index(np.eye(2), np.zeros((2, 1))) is None


def test_estimate_state_examples():
    plant = default_plant()
    x0 = np.array([1.0, 2.0])
    assert np.array_equal(estimate_state(plant, x0, []), x0)
    # all failures: open-loop drift A^2 x0
    drift = estimate_state(plant, x0, [([0.0], 0), ([1.0], 0)])
    assert np.allclose(drift, plant.A @ plant.A @ x0)
    # scalar: A=0.9, B=1, u=0.5 delivered: 0.9 * 1 + 0.5 = 1.4
    sp = PlantModel(A=[[0.9]], B=[[1.0]], x_des=[0.0], v=1)
    assert estimate_state(sp, [1.0], [([0.5], 1)])[0] == pytest.approx(1.4)


def test_control_sequence_scalar():
    # x+ = 2 * 3 + u must hit 0 -> u = -6
    plant = scalar_plant(a=2.0, x_des=0.0)
    seq = control_sequence(plant, [3.0])
    assert seq.shape == (1, 1)
    assert seq[0, 0] == pytest.approx(-6.0)


def test_control_sequence_fixed_point_identity_plant():
    plant = PlantModel(A=np.eye(2), B=np.eye(2), x_des=[0.5, -1.0], v=1)
    seq = control_sequence(plant, plant.x_des)
    x = plant.x_des.copy()
    for u in seq:
        x = plant.A @ x + plant.B @ u
    assert np.allclose(x, plant.x_des, atol=1e-12)


def test_control_sequence_forward_simulation_reaches_target():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        plant = random_consistent_plant(rng, n, m)
        x_hat = rng.normal(size=n)
        seq = control_sequence(plant, x_hat)
        x = x_hat.copy()
        for u in seq:
            x = plant.A @ x + plant.B @ u
        assert np.max(np.abs(x - plant.x_des)) <= 1e-9


def test_run_block_timing_example():
    # T=5, v=3, G=(0,1,1,1,0): delivery completes at the fourth slot,
    # dummy phase in the fifth
    plant = default_plant(3)
    shape = BlockShape(5, 3)
    trace = run_block(plant, shape, np.zeros(3), [0, 1, 1, 1, 0])
    assert trace.controllable
    assert trace.target_slot == 3
    assert [r.phase for r in trace.records] == ["control"] * 4 + ["dummy"]
    assert np.max(np.abs(trace.records[3].x_hat - plant.x_des)) <= 1e-9
    assert np.max(np.abs(trace.x_final - plant.x_des)) <= 1e-9


def test_run_block_all_failures():
    plant = default_plant(2)
    shape = BlockShape(4, 2)
    trace = run_block(plant, shape, np.array([2.0, 1.0]), [0, 0, 0, 0])
    assert not trace.controllable
    assert all(r.phase == "control" for r in trace.records)
    # pure drift
    x = np.array([2.0, 1.0])
    for _ in range(4):
        x = plant.A @ x
    assert np.allclose(trace.x_final, x)


def test_run_block_all_success():
    plant = default_plant(2)
    shape = BlockShape(5, 2)
    trace = run_block(plant, shape, np.array([3.0, -1.0]), [1, 1, 1, 1, 1])
    assert trace.controllable
    assert trace.target_slot == 1  # v successes starting at slot 0
    assert np.max(np.abs(trace.x_final - plant.x_des)) <= 1e-9


def test_run_block_flag_matches_run_detector():
    plant = default_plant(2)
    shape = BlockShape(6, 2)
    rng = np.random.default_rng(6)
    x0 = np.zeros(2)
    for _ in range(3000):
        flags = (rng.random(6) < rng.random()).astype(int).tolist()
        trace = run_block(plant, shape, x0, flags)
        assert trace.controllable == (max_run(flags) >= 2)


def test_run_block_records_replay_through_estimate_state():
    # every slot's estimate is estimate_state over the (u, g) pairs so far;
    # a dummy slot applies the steady-state input whatever its flag
    rng = np.random.default_rng(25)
    plants = [default_plant(2), default_plant(3)]
    plants += [random_consistent_plant(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
               for _ in range(20)]
    for plant in plants:
        shape = BlockShape(max(plant.v, 7), plant.v)
        x0 = rng.normal(size=plant.n)
        for _ in range(10):
            flags = (rng.random(shape.T) < rng.random()).astype(int).tolist()
            steps = []
            for rec in run_block(plant, shape, x0, flags).records:
                steps.append((rec.u, 1 if rec.phase == "dummy" else rec.g))
                assert np.array_equal(rec.x_hat, estimate_state(plant, x0, steps))


def test_run_block_v_mismatch():
    plant = default_plant(2)
    with pytest.raises(ValueError):
        run_block(plant, BlockShape(5, 3), np.zeros(2), [0] * 5)


def test_steady_state_retention_consistent_target():
    plant = default_plant(2)  # x_des = (1, 0): (I - A) x_des = 0
    assert plant.steady_state_residual() <= 1e-12
    shape = BlockShape(6, 2)
    trace = run_block(plant, shape, np.array([0.0, 0.0]), [1, 1, 0, 1, 0, 1])
    assert trace.target_slot == 1
    # dummy phase holds the estimate at the target for the rest of the block
    for rec in trace.records[2:]:
        assert rec.phase == "dummy"
        assert np.max(np.abs(rec.x_hat - plant.x_des)) <= 1e-9


def test_steady_state_least_squares_fallback():
    # inconsistent target: residual is reported, retention drifts by it
    plant = PlantModel(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]),
        B=np.array([[0.0], [1.0]]),
        x_des=np.array([1.0, 2.0]),  # (I - A) x_des = (-0.2, 0) not in range(B)
        v=2,
    )
    assert plant.steady_state_residual() == pytest.approx(0.2)


def test_noise_free_closed_loop_random_pairs():
    rng = np.random.default_rng(12)
    shape_T = 7
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        plant = random_consistent_plant(rng, n, m)
        shape = BlockShape(shape_T, plant.v) if plant.v <= shape_T else None
        if shape is None:
            continue
        flags = (rng.random(shape_T) < 0.7).astype(int).tolist()
        trace = run_block(plant, shape, rng.normal(size=n), flags)
        if max_run(flags) >= plant.v:
            assert trace.controllable
            assert np.max(np.abs(trace.x_final - plant.x_des)) <= 1e-9
        else:
            assert not trace.controllable
