import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import eigenscore
from eigenscore.errors import EmptyInputError, NonFiniteError
from eigenscore.evaluate import RocResult, auroc, curve_area


def test_auroc_interleaved_oracle():
    # pairs (2>1), (2<3), (4>1), (4>3): three of four
    assert auroc([1.0, 3.0], [2.0, 4.0]).auroc == 0.75


def test_auroc_all_ties_is_half():
    assert auroc([2.0, 2.0], [2.0, 2.0]).auroc == 0.5


def test_auroc_single_tie_half_credit():
    # pairs: 1>0, 1=1 half, 2>0, 2>1 -> 3.5 / 4
    assert auroc([0.0, 1.0], [1.0, 2.0]).auroc == 0.875


def test_auroc_perfect_and_inverted():
    assert auroc([0.0, 1.0], [2.0, 3.0]).auroc == 1.0
    assert auroc([2.0, 3.0], [0.0, 1.0]).auroc == 0.0


def test_curve_endpoints_and_monotone():
    res = auroc([0.1, 0.4, 0.4], [0.3, 0.9])
    assert res.fpr[0] == 0.0 and res.tpr[0] == 0.0
    assert res.fpr[-1] == 1.0 and res.tpr[-1] == 1.0
    assert np.all(np.diff(res.fpr) >= 0)
    assert np.all(np.diff(res.tpr) >= 0)
    # thresholds sweep the distinct scores in descending order
    assert np.array_equal(res.thresholds, [0.9, 0.4, 0.3, 0.1])
    assert len(res.fpr) == len(res.thresholds) + 1


def test_threshold_semantics():
    # at threshold 0.4, scores >= 0.4 predict out-of-distribution
    res = auroc([0.1, 0.4, 0.4], [0.3, 0.9])
    i = list(res.thresholds).index(0.4)
    assert res.fpr[i + 1] == pytest.approx(2.0 / 3.0)
    assert res.tpr[i + 1] == pytest.approx(0.5)


def test_curve_area_matches_rank_statistic():
    gen = np.random.default_rng(0)
    for _ in range(20):
        ind = np.round(gen.normal(size=17), 1)  # rounding forces ties
        ood = np.round(gen.normal(0.5, 1.0, size=11), 1)
        res = auroc(ind, ood)
        assert curve_area(res) == pytest.approx(res.auroc, abs=1e-9)


def reference_curve(ind, ood):
    """The threshold sweep as a plain loop over the distinct scores."""
    ind = np.asarray(ind, dtype=float)
    ood = np.asarray(ood, dtype=float)
    thresholds = np.unique(np.concatenate([ind, ood]))[::-1]
    fpr = [0.0]
    tpr = [0.0]
    for th in thresholds:
        fpr.append(np.count_nonzero(ind >= th) / ind.size)
        tpr.append(np.count_nonzero(ood >= th) / ood.size)
    return thresholds, np.array(fpr), np.array(tpr)


def test_curve_bit_identical_to_loop_sweep():
    gen = np.random.default_rng(3)
    for n_i, n_o, scale in ((1, 1, 1.0), (7, 3, 10.0), (200, 150, 4.0), (500, 700, 1e3)):
        # rounding forces many ties, within and across the two groups
        ind = np.round(gen.normal(size=n_i) * scale)
        ood = np.round(gen.normal(0.5, 1.0, size=n_o) * scale)
        ood[: n_o // 3] = ind[0]
        ind = np.concatenate([ind, [-0.0, 0.0]])
        res = auroc(ind, ood)
        thresholds, fpr, tpr = reference_curve(ind, ood)
        for got, want in ((res.thresholds, thresholds), (res.fpr, fpr), (res.tpr, tpr)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def rank_auroc(ind, ood):
    """The Mann-Whitney U statistic from average ranks, ties counted half."""
    ind = np.asarray(ind, dtype=float)
    ood = np.asarray(ood, dtype=float)
    ranks = rankdata(np.concatenate([ind, ood]))
    u = np.sum(ranks[ind.size :]) - ood.size * (ood.size + 1) / 2.0
    return float(u / (ind.size * ood.size))


def test_auroc_bit_identical_to_rank_statistic():
    gen = np.random.default_rng(11)
    cases = [([1.0], [1.0]), ([0.0], [1.0]), ([1.0], [0.0]), ([-0.0], [0.0])]
    for _ in range(300):
        n_i, n_o = gen.integers(1, 120, size=2)
        ind = gen.normal(size=n_i)
        ood = gen.normal(0.4, 1.0, size=n_o)
        cases.append((ind, ood))  # untied
        decimals = gen.integers(0, 3)
        cases.append((np.round(ind, decimals), np.round(ood, decimals)))  # tied
    big_i, big_o = gen.normal(size=20000), gen.normal(0.2, 1.0, size=20000)
    cases += [(big_i, big_o), (np.round(big_i, 1), np.round(big_o, 1))]
    for ind, ood in cases:
        got = auroc(ind, ood).auroc
        assert np.float64(got).tobytes() == np.float64(rank_auroc(ind, ood)).tobytes()


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package must not pull it in
    src = os.path.dirname(os.path.dirname(eigenscore.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, eigenscore, eigenscore.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_counts_recorded():
    res = auroc([0.0, 1.0, 2.0], [5.0])
    assert res.n_ind == 3 and res.n_ood == 1


def test_to_dict_round_trip():
    d = auroc([0.0, 1.0], [2.0]).to_dict()
    assert d["auroc"] == 1.0
    assert d["n_ind"] == 2 and d["n_ood"] == 1
    assert len(d["fpr"]) == len(d["tpr"]) == len(d["thresholds"]) + 1
    assert isinstance(d["fpr"][0], float)


def test_rejects_empty_and_non_finite():
    with pytest.raises(EmptyInputError):
        auroc([], [1.0])
    with pytest.raises(EmptyInputError):
        auroc([1.0], [])
    with pytest.raises(NonFiniteError):
        auroc([np.nan], [1.0])
    with pytest.raises(NonFiniteError):
        auroc([1.0], [np.inf])


grid_scores = st.lists(
    st.integers(-3, 3).map(float), min_size=1, max_size=25
)


@settings(max_examples=60, deadline=None)
@given(grid_scores, grid_scores)
def test_area_equals_rank_statistic_everywhere(ind, ood):
    res = auroc(ind, ood)
    assert curve_area(res) == pytest.approx(res.auroc, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(grid_scores, grid_scores)
def test_invariant_under_monotone_maps(ind, ood):
    base = auroc(ind, ood).auroc
    affine = auroc([2.0 * v + 1.0 for v in ind], [2.0 * v + 1.0 for v in ood]).auroc
    cubic = auroc([v**3 for v in ind], [v**3 for v in ood]).auroc
    assert affine == pytest.approx(base, abs=1e-12)
    assert cubic == pytest.approx(base, abs=1e-12)
