"""Test oracles: textbook or one-at-a-time forms of what the package computes
in a faster or structured way, and random inputs for the property tests.
Nothing in the package reaches them; the tests hold the package against them."""

from pathlib import Path

import numpy as np

from qmeasure.algebra import SpectralAlgebra
from qmeasure.errors import DimMismatch
from qmeasure.measurement import MeasurementModel
from qmeasure.scenario import Scenario, parse_scenario
from qmeasure.states import DensityMatrix, StateVector, as_density, as_state


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
