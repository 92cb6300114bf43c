"""Test oracles: textbook or one-at-a-time forms of what the package computes
in a faster or structured way, and random inputs for the property tests.
Nothing in the package reaches them; the tests hold the package against them."""

from pathlib import Path

import numpy as np

from qmeasure.algebra import SpectralAlgebra, _split_points, restrict_state
from qmeasure.errors import DimMismatch
from qmeasure.linalg import default_cluster_tol
from qmeasure.measurement import (
    MeasurementModel,
    apparatus_reduced_state,
    build_coupling,
    collapse,
    premeasure,
)
from qmeasure.scenario import Scenario, parse_scenario
from qmeasure.states import DensityMatrix, StateVector, as_density, as_state, projector_of


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def rand_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a Ginibre factor, full rank by default."""
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def projectors(algebra: SpectralAlgebra) -> tuple[np.ndarray, ...]:
    """Spectral projectors V_k V_k^dagger, one per spectrum point."""
    v = np.eye(algebra.dim, dtype=complex) if algebra.basis is None else algebra.basis
    blocks = (v[:, algebra.labels == k] for k in range(algebra.n_points))
    return tuple(b @ b.conj().T for b in blocks)


def spectrum_reference(gens) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The split loop of qmeasure.algebra._spectrum, on the same input, with
    an eigensolver call at every spectrum point, one-column points included,
    and every new point valued at the mean of its cluster, a lone value kept
    as it is. The package reads a one-column point's value off the compressed
    generator instead."""
    n = gens[0].shape[0]
    labels = np.zeros(n, dtype=np.intp)
    counts = np.array([n])
    chars = np.zeros((1, 0))
    basis = None
    for g in gens:
        if g.ndim == 1:
            values = np.real(g)
        else:
            fresh = basis is None
            basis = np.eye(n, dtype=complex) if fresh else basis
            values = np.empty(n)
            order = np.argsort(labels, kind="stable")
            for end, m in zip(np.cumsum(counts), counts):
                cols = order[end - m : end]
                if fresh:
                    block = np.ix_(cols, cols)
                    values[cols], basis[block] = np.linalg.eigh(g[block])
                else:
                    v = basis[:, cols]
                    values[cols], u = np.linalg.eigh(v.conj().T @ g @ v)
                    basis[:, cols] = v @ u
        counts, parents, _ = _split_points(labels, counts, values, default_cluster_tol(values))
        means = np.empty(counts.size)
        for k in range(counts.size):
            cluster = np.sort(values[labels == k])
            means[k] = cluster[0] if cluster.size == 1 else cluster[0] + np.mean(cluster - cluster[0])
        chars = np.column_stack((chars[parents], means))
    return labels, chars, basis


def collapse_restriction_gap(psi: StateVector, basis: np.ndarray, apparatus, algebra) -> float:
    """One case of the collapse vs restriction equivalence, through the
    objects of a run: the largest gap between the collapse diagonal of psi in
    the measured basis and the weights its premeasured apparatus state puts
    on the readout algebra. The package runs a stack of cases at once
    (scenario.collapse_restriction_gaps)."""
    model = build_coupling(basis, apparatus)
    rho_app = apparatus_reduced_state(premeasure(psi, model), model.dims)
    weights = restrict_state(rho_app, algebra).weights
    collapsed = collapse(projector_of(psi), model)
    diag = np.real(np.diag(basis.conj().T @ collapsed.matrix @ basis))
    return float(np.max(np.abs(weights - diag)))


def premeasure_density(rho, model: MeasurementModel) -> DensityMatrix:
    """Mixed-state premeasurement as the dense W rho W^dagger, with the
    ready-input isometry W = sum_j (b_j (x) e_j) b_j^dagger, equal to
    U (rho (x) |e_0><e_0|) U^dagger. It is (d * dim_apparatus)^2; a run needs
    only its apparatus marginal, which apparatus_reduced_density gives in
    closed form."""
    r = as_density(rho)
    if r.dim != model.dim_system:
        raise DimMismatch(f"state dim {r.dim}, system dim {model.dim_system}")
    b = model.measured_basis
    f = np.eye(model.apparatus.dim_apparatus, model.dim_system)
    # column j of the product array is b_j (x) e_j
    w = (b[:, None, :] * f[None, :, :]).reshape(-1, b.shape[1]) @ b.conj().T
    return DensityMatrix._trusted(w @ r.matrix @ w.conj().T)


def sample_outcome(
    psi, model: MeasurementModel, rng: np.random.Generator
) -> tuple[float, StateVector]:
    """Draw one outcome with probability |<b_j|psi>|^2: the one-draw-at-a-time
    form of the scenario sampling.

    Consumes exactly one uniform variate from rng via the inverse CDF over
    outcomes in ascending order. The returned post-state is measured basis
    column j; reporting it is a labeling convention for the run record, not
    a claim about dynamics.
    """
    p = as_state(psi)
    if p.dim != model.dim_system:
        raise DimMismatch(f"state dim {p.dim}, system dim {model.dim_system}")
    amps = model.measured_basis.conj().T @ p.amplitudes
    cum = np.cumsum(np.abs(amps) ** 2)
    j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    j = min(j, amps.size - 1)
    return float(model.measured_pvm.characters[j, 0]), StateVector(model.measured_basis[:, j])
