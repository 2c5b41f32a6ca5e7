"""A standing light wave, boosted: mass, group speed, and the envelope.

Boosting a standing wave Doppler-shifts its two counter-propagating
components to gamma*omega0*(1 +/- beta).  The total four-momentum then has
invariant mass hbar*sqrt(w+ w-)/c^2 = hbar*omega0/c^2 (unchanged!) and
group velocity beta*c.  The snapshot factors into a short carrier whose
nodes drift at v and a long envelope moving at c^2/v whose wavelength is
exactly the de Broglie wavelength h/(gamma*m*v).

Run:  python3 demos/01_boosted_standing_wave.py
"""

import numpy as np

from qmasslab import qmass, wavecore

OMEGA0 = 1.0

for beta in (0.1, 0.3, 0.6, 0.9):
    b = wavecore.boost_standing_wave(OMEGA0, beta)
    state = qmass.mass_state_of(b)
    pair = wavecore.factor_carrier_envelope(b)

    print(f"beta = {beta}")
    print(f"  component frequencies : {b.omega_plus:.6f}, {b.omega_minus:.6f}")
    print(f"  invariant mass        : {state.m:.12f}  (hbar*omega0/c^2 = {OMEGA0})")
    print(f"  group speed           : {state.v:.12f}")
    print(f"  carrier phase speed   : {pair.carrier.phase_speed:.6f}  (= v)")
    print(f"  envelope phase speed  : {pair.envelope.phase_speed:.6f}  (= c^2/v > c)")

    # measure the envelope wavelength from a snapshot and compare with h/(gamma m v)
    x = wavecore.envelope_sampling_grid(b)
    snap = wavecore.evaluate(wavecore.superposition_of(b), x, t=0.3)
    lam_measured = wavecore.measure_envelope_wavelength(x, snap)
    lam_predicted = qmass.de_broglie_wavelength(state.m, state.v)
    print(f"  de Broglie wavelength : {lam_predicted:.6f} predicted, "
          f"{lam_measured:.6f} measured from zero crossings")
    print()
