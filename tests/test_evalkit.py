import numpy as np
import pytest

from handemg import evalkit as ek
from handemg.errors import InvalidInputError


def _errors(rng, n, n_joints=22):
    return rng.uniform(0, 10, (n, n_joints))


def test_groupings_partition_the_layout():
    finger = [i for idx in ek.FINGER_GROUPS.values() for i in idx]
    assert sorted(finger) == list(range(22))
    phalanx = [i for idx in ek.PHALANX_GROUPS.values() for i in idx]
    assert sorted(phalanx) == list(range(20))  # wrist DoFs have no phalanx


def test_mae_matches_double_loop():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(50, 22))
    gt = rng.normal(size=(50, 22))
    acc = 0.0
    for t in range(50):
        for j in range(22):
            acc += abs(pred[t, j] - gt[t, j])
    assert abs(ek.mae(pred, gt) - acc / (50 * 22)) < 1e-12


def test_records_recombine_to_mae():
    """The per-sample error rows of one user pool back to the MAE."""
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(30, 22))
    gt = rng.normal(size=(30, 22))
    mean, _, by_user = ek.per_user_aggregate(np.abs(pred - gt), np.full(30, 3))
    assert list(by_user) == [3]
    assert abs(mean - ek.mae(pred, gt)) < 1e-12


def test_group_mae_identity():
    rng = np.random.default_rng(2)
    stacked = _errors(rng, 40)
    groups = ek.group_mae(stacked)
    for name, idx in ek.FINGER_GROUPS.items():
        assert abs(groups[name] - stacked[:, list(idx)].mean()) < 1e-12
    # weighted recombination over fingers recovers the pooled value
    weights = {n: len(ek.FINGER_GROUPS[n]) for n in groups}
    total = sum(groups[n] * weights[n] for n in groups) / sum(weights.values())
    assert abs(total - stacked.mean()) < 1e-12


def test_per_user_aggregate():
    errors = np.stack([np.full(22, 10.0), np.full(22, 20.0)])
    mean, std, by_user = ek.per_user_aggregate(errors, [1, 2])
    assert mean == 15.0 and std == 5.0
    assert by_user == {1: 10.0, 2: 20.0}


def test_per_user_duplication_invariance():
    """Repeating one user's rows must not move the per-user mean."""
    rng = np.random.default_rng(3)
    base = np.concatenate([_errors(rng, 10), _errors(rng, 10)])
    users = np.repeat([1, 2], 10)
    dup = np.concatenate([base] + [base[users == 1]] * 5)
    dup_users = np.concatenate([users] + [users[users == 1]] * 5)
    mean_a, _, _ = ek.per_user_aggregate(base, users)
    mean_b, _, _ = ek.per_user_aggregate(dup, dup_users)
    assert abs(mean_a - mean_b) < 1e-12
    # while the pooled mean does move (sanity of the distinction)
    assert abs(base.mean() - dup.mean()) > 1e-6


def test_record_validation():
    with pytest.raises(InvalidInputError):
        ek.group_mae(np.array([[1.0, -2.0]]))
    with pytest.raises(InvalidInputError):
        ek.per_user_aggregate(np.array([[np.nan]]), [0])
    with pytest.raises(InvalidInputError):
        ek.group_mae(np.array([1.0, 2.0]))   # one sample needs a (1, J) matrix
    with pytest.raises(InvalidInputError):
        ek.group_mae(np.zeros((0, 22)))
    with pytest.raises(InvalidInputError):
        ek.per_user_aggregate(np.zeros((3, 22)), [0, 1])
    with pytest.raises(InvalidInputError):
        ek.mae(np.zeros((3, 22)), np.zeros((4, 22)))
