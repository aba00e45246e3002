"""Self-tests of the benchmark: percentiles, answer checks, error counting, seeds."""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from perfbench import oracle, stats, workloads
from perfbench.run import Failures, Reply, ServedMix, drive, unattributed_share

GRID = oracle.exact_grid()
#: A synthetic reference curve with its minimum at grid index 6.
CURVE = 1.0 + (np.arange(GRID.shape[0]) - 6.0) ** 2


@pytest.mark.parametrize(
    ("count", "expected"),
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1_000, 99.0), (9_999, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for p in (0, 10, 50, 90, 100):
        assert stats.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_check_accepts_the_reference_answer():
    assert oracle.check_selection(GRID[6], CURVE[6] * (1 + 1e-9), GRID, CURVE) is None


def test_check_fails_a_wrong_index():
    assert "index 7" in oracle.check_selection(GRID[7], CURVE[7], GRID, CURVE)


def test_check_fails_a_boundary_answer_even_when_it_is_the_reference():
    edge = CURVE[::-1].copy()  # minimum on the last grid point
    assert "boundary" in oracle.check_selection(GRID[-1], edge[-1], GRID, edge)
    assert "boundary" in oracle.check_selection(GRID[0], CURVE[0], GRID, CURVE)


def test_check_fails_a_cv_value_off_the_reference():
    assert "CV" in oracle.check_selection(GRID[6], CURVE[6] * 1.001, GRID, CURVE)


def test_check_fails_a_bandwidth_off_the_grid():
    assert "not a grid point" in oracle.check_selection(0.0137, None, GRID, CURVE)


def test_reference_argmin_skips_leading_empty_window_zeros():
    assert oracle.reference_argmin(np.array([0.0, 0.0, 3.0, 1.0, 2.0])) == 3
    assert oracle.reference_argmin(np.zeros(4, dtype=np.float64)) == 3


def test_unattributed_share_is_the_catch_all_residual():
    # 10 s of wall: core.api spans 9 s, of which its children claim 8 s.
    trace = {"root_s": 9.0, "self_s": {"core.api": 1.0, "core.fastgrid": 8.0}}
    assert unattributed_share(trace, 10.0, "core.api") == pytest.approx(0.2)
    # A layer that goes unwrapped moves its time into the catch-all.
    trace = {"root_s": 9.0, "self_s": {"core.api": 9.0}}
    assert unattributed_share(trace, 10.0, "core.api") == pytest.approx(1.0)


def test_interior_check():
    assert oracle.check_interior(0.0075, GRID) is None
    assert oracle.check_interior(float(GRID[0]), GRID) is not None


@pytest.fixture(scope="module")
def mix(tmp_path_factory):
    return ServedMix(seed=3, work=tmp_path_factory.mktemp("work"))


def _first(mix, path):
    return next(r for r in mix.requests if r.path == path)


def test_served_select_reply_is_checked_against_the_oracle(mix):
    req = _first(mix, "/select")
    ref = mix.refs[req.dataset]
    index = oracle.reference_argmin(ref)

    def reply(bandwidth):
        body = json.dumps({"result": {"bandwidth": bandwidth, "score": float(ref[index])}})
        return Reply(req.rid, "/select", 200, 0.01, body.encode())

    assert mix.check(reply(float(mix.grids[req.dataset][index]))) is None
    assert mix.check(reply(float(mix.grids[req.dataset][index + 1]))) is not None


def test_non_200_and_refused_replies_fail(mix):
    req = _first(mix, "/select")
    assert "status 500" in mix.check(Reply(req.rid, "/select", 500, 0.01, b"{}"))
    assert "status None" in mix.check(Reply(req.rid, "/select", None, 0.01, b"refused"))


def test_mismatched_prediction_fails(mix):
    req = _first(mix, "/predict")
    x, y = mix.data[mix.reg_seed]
    good = oracle.nw_reference(x, y, mix.h_model, np.array(req.at)).tolist()
    bad = [v * (1 + 1e-6) for v in good]
    for estimates, ok in ((good, True), (bad, False), (good[:-1], False)):
        body = json.dumps({"estimates": estimates}).encode()
        assert (mix.check(Reply(req.rid, "/predict", 200, 0.01, body)) is None) is ok


def test_refused_requests_count_as_attempted(mix):
    with socket.socket() as sock:  # a port nobody listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    requests = mix.requests[:6]
    replies, _ = drive("127.0.0.1", port, requests, mix.bodies, connections=2)
    fails = Failures()
    for reply in replies:
        fails.record(reply.path, mix.check(reply))
    assert fails.attempted == len(requests)
    assert fails.failed == len(requests)
    assert fails.error_rate == pytest.approx(1.0)


def test_seed_is_an_argument_and_changes_the_inputs():
    assert workloads.exact_order(1) == workloads.exact_order(1)
    assert workloads.exact_order(1) != workloads.exact_order(2)
    assert sorted(workloads.exact_order(1)) == sorted(workloads.EXACT_POOL)
    assert workloads.served_plan(1) == workloads.served_plan(1)
    assert workloads.served_plan(1) != workloads.served_plan(2)
    x1, _ = workloads.bagged_dataset(1)
    x2, _ = workloads.bagged_dataset(2)
    assert np.array_equal(x1, workloads.bagged_dataset(1)[0])
    assert not np.array_equal(x1, x2)


def test_served_plans_differ_in_order_not_in_counts():
    for seed in (1, 2, 11):
        _, requests = workloads.served_plan(seed)
        selects = [r.dataset for r in requests if r.path == "/select"]
        assert len(selects) == workloads.SERVED_REQUESTS * workloads.PREDICT_SHARE
        assert set(selects) == set(workloads.SERVED_POOL)


def test_committed_references_are_interior():
    for name in ("exact-8k", "served-mix"):
        for seed, curve in oracle.load(name).items():
            index = oracle.reference_argmin(curve)
            assert 0 < index < curve.shape[0] - 1, (name, seed)
