"""The boundary-optimum flag in selection diagnostics.

On the paper DGP the paper-default grid ``{domain/k … domain}`` puts the
CV minimum below its lowest point, so the selected bandwidth is the grid
edge — an answer the grid cannot confirm.  ``diagnostics["boundary_minimum"]``
says so; on an interior grid such as ``linspace(0.002, 0.1, 50)`` it is
False.
"""

from __future__ import annotations

import json

import pytest

from repro import select_bandwidth
from repro.cli import main
from repro.core.grid import BandwidthGrid
from repro.data.generators import paper_dgp

INTERIOR = BandwidthGrid.evenly_spaced(0.002, 0.1, 50)


@pytest.fixture(scope="module")
def sample():
    data = paper_dgp(2000, seed=1)
    return data.x, data.y


class TestGridMethod:
    def test_paper_default_grid_is_a_boundary_optimum(self, sample):
        result = select_bandwidth(*sample)
        assert result.bandwidth == pytest.approx(result.bandwidths[0])
        assert result.diagnostics["boundary_minimum"] is True

    def test_interior_grid_is_not(self, sample):
        result = select_bandwidth(*sample, grid=INTERIOR)
        assert result.diagnostics["boundary_minimum"] is False


class TestBaggedMethod:
    # The bagged result's ``bandwidths`` are the subsample votes, so the
    # flag must be taken against the grid, not against the votes.
    def test_paper_default_grid_is_a_boundary_optimum(self, sample):
        result = select_bandwidth(
            *sample, method="bagged", subsamples=4, subsample_size=1000
        )
        assert result.diagnostics["boundary_minimum"] is True

    def test_interior_grid_is_not(self, sample):
        result = select_bandwidth(
            *sample, method="bagged", grid=INTERIOR, subsamples=4,
            subsample_size=1000,
        )
        assert result.diagnostics["boundary_minimum"] is False


def test_cli_json_reports_the_flag(capsys):
    assert main(["select", "--n", "500", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"]["boundary_minimum"] is True
