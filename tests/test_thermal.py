"""Thermal states of the ring stay below the reference GD peaks.

Acceptance 01/02 pin refined global-discord peaks to a reference table
(1.83, 2.44, 3.09 at N = 3..5) that the ring ground states sit far below.
This checks the remaining variant of the definition, a Gibbs state at
T > 0, with the oracles alone: no package code is imported.  For any state,
min(f_x, f_z) over the uniform sigma^x and sigma^z bases bounds GD from
above, and on a 20 x 8 grid of (B/J, T) its maximum is 1.2537, 1.5232 and
1.7938 at N = 3, 4, 5, each at the lowest temperature, T = 0.02.
"""

import numpy as np

import oracles

REFERENCE_MAX_GD = {3: 1.8296, 4: 2.4360, 5: 3.0879}


def test_thermal_states_stay_below_the_reference_peaks():
    for n, reference in REFERENCE_MAX_GD.items():
        best = 0.0
        for ratio in np.linspace(0.05, 3.0, 20):
            ham = oracles.sparse_tfim(n, 1.0, ratio).toarray()
            energies, vectors = np.linalg.eigh(ham)
            for temperature in np.geomspace(0.02, 5.0, 8):
                weights = np.exp(-(energies - energies[0]) / temperature)
                rho = (vectors * (weights / weights.sum())) @ vectors.conj().T
                best = max(best, min(
                    oracles.full_matrix_objective(rho, n, np.tile(axis, (n, 1)))
                    for axis in ([np.pi / 2.0, 0.0], [0.0, 0.0])))
        print(f"N = {n}: max over (B/J, T) of min(f_x, f_z) = {best:.4f}")
        assert best < reference, (n, best)
