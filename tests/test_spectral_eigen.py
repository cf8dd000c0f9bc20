"""Tests for repro.spectral.eigen."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError, SpectralError
from repro.graphs.graph import Graph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    from_edges,
    grid_graph,
    hypercube_graph,
    path_graph,
    star_graph,
    torus_graph,
)
from repro.model.speeds import linear_speeds
from repro.spectral import eigen
from repro.spectral.eigen import (
    DENSE_CUTOFF,
    algebraic_connectivity,
    fiedler_vector,
    generalized_lambda2,
    generalized_spectrum,
    laplacian_spectrum,
    spectral_gap_ratio,
)
from repro.spectral.laplacian import laplacian_matrix, laplacian_sparse


class TestLaplacianSpectrum:
    def test_complete_graph_spectrum(self):
        """K_n has spectrum {0, n, ..., n}."""
        spectrum = laplacian_spectrum(complete_graph(6))
        assert spectrum[0] == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(spectrum[1:], 6.0, atol=1e-9)

    def test_star_spectrum(self):
        """S_n has spectrum {0, 1 (n-2 times), n}."""
        spectrum = laplacian_spectrum(star_graph(6))
        assert spectrum[0] == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(spectrum[1:5], 1.0, atol=1e-9)
        assert spectrum[5] == pytest.approx(6.0, abs=1e-9)

    def test_cycle_eigenvalues(self):
        """C_n eigenvalues are 2 - 2cos(2 pi k/n)."""
        n = 8
        spectrum = laplacian_spectrum(cycle_graph(n))
        expected = np.sort([2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)])
        np.testing.assert_allclose(spectrum, expected, atol=1e-9)

    def test_trace_equals_degree_sum(self, small_graphs):
        for graph in small_graphs:
            spectrum = laplacian_spectrum(graph)
            assert spectrum.sum() == pytest.approx(float(graph.degrees.sum()), rel=1e-9)

    def test_zero_multiplicity_counts_components(self):
        graph = from_edges(5, [(0, 1), (2, 3)])  # 3 components
        spectrum = laplacian_spectrum(graph)
        assert int(np.count_nonzero(spectrum < 1e-9)) == 3


class TestAlgebraicConnectivity:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (complete_graph(7), 7.0),
            (cycle_graph(10), 2.0 - 2.0 * math.cos(2.0 * math.pi / 10)),
            (path_graph(10), 2.0 - 2.0 * math.cos(math.pi / 10)),
            (hypercube_graph(4), 2.0),
            (star_graph(9), 1.0),
        ],
    )
    def test_known_values(self, graph, expected):
        assert algebraic_connectivity(graph) == pytest.approx(expected, rel=1e-9)

    def test_torus_value(self):
        k = 5
        expected = 2.0 - 2.0 * math.cos(2.0 * math.pi / k)
        assert algebraic_connectivity(torus_graph(k)) == pytest.approx(expected, rel=1e-9)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            algebraic_connectivity(from_edges(4, [(0, 1), (2, 3)]))

    def test_single_vertex_raises(self):
        with pytest.raises(DisconnectedGraphError):
            algebraic_connectivity(from_edges(1, []))


class TestFiedlerVector:
    def test_is_eigenvector(self, path5):
        lap = laplacian_matrix(path5)
        vec = fiedler_vector(path5)
        lambda2 = algebraic_connectivity(path5)
        np.testing.assert_allclose(lap @ vec, lambda2 * vec, atol=1e-8)

    def test_orthogonal_to_ones(self, ring8):
        vec = fiedler_vector(ring8)
        assert float(vec.sum()) == pytest.approx(0.0, abs=1e-8)

    def test_path_fiedler_monotone(self):
        """The path's Fiedler vector is monotone along the path."""
        vec = fiedler_vector(path_graph(9))
        diffs = np.diff(vec)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            fiedler_vector(from_edges(4, [(0, 1), (2, 3)]))


class TestGeneralizedSpectrum:
    def test_uniform_speeds_match_laplacian(self, torus9):
        gen = generalized_spectrum(torus9, np.ones(9))
        lap = laplacian_spectrum(torus9)
        np.testing.assert_allclose(gen, lap, atol=1e-9)

    def test_all_nonnegative(self, small_graphs, rng):
        for graph in small_graphs:
            speeds = rng.uniform(1.0, 3.0, size=graph.num_vertices)
            spectrum = generalized_spectrum(graph, speeds)
            assert spectrum.min() >= 0.0

    def test_smallest_is_zero(self, cube8, rng):
        speeds = rng.uniform(1.0, 3.0, size=8)
        spectrum = generalized_spectrum(cube8, speeds)
        assert spectrum[0] == pytest.approx(0.0, abs=1e-9)

    def test_mu2_positive_connected(self, ring8, rng):
        speeds = rng.uniform(1.0, 3.0, size=8)
        assert generalized_lambda2(ring8, speeds) > 0

    def test_mu2_scaling_by_constant_speed(self, ring8):
        """With s_i = c for all i, mu_2 = lambda_2 / c."""
        lambda2 = algebraic_connectivity(ring8)
        mu2 = generalized_lambda2(ring8, np.full(8, 2.0))
        assert mu2 == pytest.approx(lambda2 / 2.0, rel=1e-9)

    def test_disconnected_raises(self):
        graph = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            generalized_lambda2(graph, np.ones(4))


class TestSpectralGapRatio:
    def test_complete(self):
        graph = complete_graph(8)
        assert spectral_gap_ratio(graph) == pytest.approx(7.0 / 8.0, rel=1e-9)

    def test_ring_grows_quadratically(self):
        small = spectral_gap_ratio(cycle_graph(8))
        large = spectral_gap_ratio(cycle_graph(16))
        assert large / small == pytest.approx(4.0, rel=0.15)


class TestNonStrictDisconnected:
    """``strict=False``: disconnected graphs report, they don't raise.

    The live topology trace evaluates the spectrum every round while
    partitions are in effect, so the non-strict path must map a
    disconnected graph to ``lambda_2 = 0`` and ``gap_ratio = inf``
    instead of :class:`DisconnectedGraphError`."""

    def test_disconnected_lambda2_zero(self):
        graph = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert algebraic_connectivity(graph, strict=False) == 0.0

    def test_disconnected_gap_inf(self):
        graph = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert spectral_gap_ratio(graph, strict=False) == math.inf

    def test_single_vertex_non_strict(self):
        graph = from_edges(1, [])
        assert algebraic_connectivity(graph, strict=False) == 0.0
        assert spectral_gap_ratio(graph, strict=False) == math.inf

    def test_strict_remains_default(self):
        graph = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(DisconnectedGraphError):
            algebraic_connectivity(graph)
        with pytest.raises(DisconnectedGraphError):
            spectral_gap_ratio(graph)

    def test_connected_values_identical(self, small_graphs):
        for graph in small_graphs:
            assert algebraic_connectivity(graph, strict=False) == (
                algebraic_connectivity(graph)
            )
            assert spectral_gap_ratio(graph, strict=False) == (
                spectral_gap_ratio(graph)
            )


def _two_copies(graph: Graph) -> Graph:
    """Disjoint union of ``graph`` with a relabelled copy of itself."""
    n = graph.num_vertices
    u = np.concatenate([graph.edges_u, graph.edges_u + n])
    v = np.concatenate([graph.edges_v, graph.edges_v + n])
    return from_edges(2 * n, list(zip(u.tolist(), v.tolist())))


class TestSparsePath:
    """Graphs above ``DENSE_CUTOFF`` go through the shift-invert solve."""

    @pytest.mark.parametrize(
        "graph,expected",
        [
            (torus_graph(60), 2.0 - 2.0 * math.cos(2.0 * math.pi / 60)),
            (hypercube_graph(11), 2.0),
            (cycle_graph(2000), 2.0 - 2.0 * math.cos(2.0 * math.pi / 2000)),
        ],
        ids=["torus60", "hypercube11", "cycle2000"],
    )
    def test_closed_form_lambda2(self, graph, expected):
        assert graph.num_vertices > DENSE_CUTOFF
        assert algebraic_connectivity(graph) == pytest.approx(expected, rel=1e-9)

    def test_repeated_solves_are_bit_identical(self):
        graph = torus_graph(60)
        values = {algebraic_connectivity(graph) for _ in range(4)}
        assert len(values) == 1

    def test_generalized_lambda2_within_corollary_116(self):
        """``lambda_2 / s_max <= mu_2 <= lambda_2 / s_min``."""
        graph = torus_graph(60)
        speeds = linear_speeds(graph.num_vertices, 4.0)
        lambda2 = algebraic_connectivity(graph)
        mu2 = generalized_lambda2(graph, speeds)
        slack = 1e-9 * lambda2
        assert lambda2 / speeds.max() - slack <= mu2 <= lambda2 / speeds.min() + slack

    def test_fiedler_rayleigh_quotient_is_lambda2(self):
        graph = torus_graph(60)
        vec = fiedler_vector(graph)
        quotient = float(vec @ (laplacian_sparse(graph) @ vec) / (vec @ vec))
        assert quotient == pytest.approx(algebraic_connectivity(graph), rel=1e-9)

    def test_sparse_and_dense_paths_agree(self, monkeypatch):
        graph = grid_graph(7, 57)
        speeds = linear_speeds(graph.num_vertices, 3.0)
        dense = (
            algebraic_connectivity(graph),
            generalized_lambda2(graph, speeds),
            fiedler_vector(graph),
        )
        monkeypatch.setattr(eigen, "DENSE_CUTOFF", 100)
        with pytest.raises(SpectralError):
            laplacian_spectrum(graph)
        assert algebraic_connectivity(graph) == pytest.approx(dense[0], rel=1e-9)
        assert generalized_lambda2(graph, speeds) == pytest.approx(dense[1], rel=1e-9)
        vec = fiedler_vector(graph)
        # lambda_2 of the 7 x 57 mesh is simple, so the vectors agree up to sign.
        assert abs(float(vec @ dense[2])) == pytest.approx(1.0, abs=1e-8)

    def test_disconnected_copies(self):
        graph = _two_copies(torus_graph(60))
        assert graph.num_vertices > DENSE_CUTOFF
        assert algebraic_connectivity(graph, strict=False) == 0.0
        with pytest.raises(DisconnectedGraphError):
            algebraic_connectivity(graph, strict=True)
