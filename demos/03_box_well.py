"""A moving light cavity in an infinite well: beats, states, quantization.

Superposing the +v and -v frequency pairs of a moving cavity, phased to
vanish at one wall, gives a field that slowly oscillates between two
broad envelope shapes (the cosine and sine internal states) at the beat
frequency gamma*omega0*v/c.  Tracking the cavity as it sweeps the well
traces a helix whose spatial wavenumber is the de Broglie wavenumber
gamma*m*v/hbar, and demanding the odd envelope vanish at both walls
quantizes the speed - recovering the infinite-well momenta n*pi*hbar/W.

Run:  python3 demos/03_box_well.py
"""

import numpy as np

from qmasslab import boxwell as bw
from qmasslab import qmass, wavecore

# speed chosen so the envelope fits the second well mode (dk*W = 2*pi)
v2 = bw.speed_for_mode(bw.Well(W=1.0, omega0=100.0), 2)
cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v2)

print(f"cavity speed v = {cfg.v:.7f}, gamma = {cfg.gamma:.9f}")
print(f"fast (carrier) frequency gamma*omega0     = {cfg.omega_bar:.6f}")
print(f"slow (beat)    frequency gamma*omega0*v/c = {cfg.delta_omega:.6f}")
print()

beats = bw.analyze_beats(cfg, probe=0.275)
print("Spectral analysis of a fixed probe inside the well:")
print(f"  fast measured {beats.fast:.6f}  (rel error {abs(beats.fast / cfg.omega_bar - 1):.2e})")
print(f"  slow measured {beats.slow:.6f}  (rel error {abs(beats.slow / cfg.delta_omega - 1):.2e})")
print()

trace = bw.trace_states_vs_position(cfg, n_positions=160)
p = qmass.four_momentum_of(wavecore.boost_standing_wave(cfg.omega0, cfg.v)).p
modulus = np.hypot(trace.a_cos, trace.a_sin)
print("State helix as the cavity crosses the well:")
print(f"  state amplitudes in the first window: cosine {trace.a_cos[0]:.4f}, "
      f"sine {trace.a_sin[0]:.4f}")
print(f"  fitted envelope wavenumber {trace.envelope_wavenumber:.9f} "
      f"vs p/hbar = {p:.9f}")
print(f"  helix modulus flat to {np.max(modulus) / np.min(modulus) - 1:.2e}")
print()

print("Quantized cavity speeds and the infinite-well correspondence:")
qcfg = bw.Well(W=1.0, omega0=100.0)
print(f"  {'n':>2} {'v_n':>12} {'p_n':>12} {'n*pi*hbar/W':>12} "
      f"{'E_kin':>12} {'E_well':>12}")
for rep in bw.quantize(qcfg, 5):
    print(f"  {rep.n:>2} {rep.v_n:>12.8f} {rep.p_n:>12.8f} "
          f"{rep.p_schrodinger:>12.8f} {rep.kinetic_energy:>12.8f} "
          f"{rep.schrodinger_energy:>12.8f}")
print("  (energies agree to the leading relativistic correction (p/mc)^2)")
