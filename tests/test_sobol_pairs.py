"""Tests for the pairwise total index (ST_{ij} at no extra cost).

The ``sobol2`` statistic is checked against ``1 - corr(Y^Ci, Y^Cj)``
computed in two passes, and both against Ishigami's exact targets: with
V3 = 0 and only the {1,3} interaction present,

    ST_{12} = 1 - V_3 / V        = 1            (complement {3} has V3=0)
    ST_{13} = 1 - V_2 / V        = (V1+V13)/V   = ST_1
    ST_{23} = 1 - V_1 / V        = (V2+V13)/V
"""

import numpy as np
import pytest

from repro.sampling import draw_design
from repro.sobol import IshigamiFunction
from repro.stats import StatContext, available_statistics

from sobol_reference import two_pass_maps, two_pass_pair_total


@pytest.fixture(scope="module")
def trained():
    """Ishigami ``(ngroups, p+2)`` outputs and the sobol2 maps they give."""
    fn = IshigamiFunction()
    design = draw_design(fn.space(), 5000, seed=21)
    outputs = np.column_stack(
        [fn(design.a), fn(design.b)] + [fn(design.c_matrix(k)) for k in range(3)]
    )
    stat = available_statistics()["sobol2"](StatContext(shape=(), nparams=3), {})
    for row in outputs:
        stat.update_group(row)
    return fn, outputs, stat.finalize()


def plugin_pair_total(maps, i, j):
    i, j = sorted((i, j))
    return float(maps[f"sobol2_total_x{i + 1}_x{j + 1}"])


def reference_pair_total(outputs, i, j):
    return float(two_pass_pair_total(outputs[:, 2 + i], outputs[:, 2 + j]))


class TestPairTotals:
    def test_analytic_values(self, trained):
        fn, outputs, maps = trained
        v1, v2, v13, v = fn.variance_terms()
        expected = {(0, 1): 1.0, (0, 2): (v1 + v13) / v, (1, 2): (v2 + v13) / v}
        for (i, j), target in expected.items():
            pair = plugin_pair_total(maps, i, j)
            assert pair == pytest.approx(reference_pair_total(outputs, i, j), rel=1e-10)
            assert pair == pytest.approx(target, abs=0.04)

    def test_symmetry(self, trained):
        _, outputs, maps = trained
        assert reference_pair_total(outputs, 2, 0) == pytest.approx(
            reference_pair_total(outputs, 0, 2), rel=1e-12
        )
        assert plugin_pair_total(maps, 2, 0) == pytest.approx(
            reference_pair_total(outputs, 2, 0), rel=1e-10
        )

    def test_pair_dominates_singles(self, trained):
        """ST_{ij} >= max(ST_i, ST_j): the pair's total effect includes
        each member's total effect (up to estimator noise)."""
        _, outputs, maps = trained
        _, total, _, _ = two_pass_maps(outputs)
        for i in range(3):
            for j in range(i + 1, 3):
                pair = plugin_pair_total(maps, i, j)
                assert pair >= max(total[i], total[j]) - 0.05
