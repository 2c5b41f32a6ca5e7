"""Local mass, flow lines, and fringes behind a double slit.

At each point behind the slits the two cylindrical-ish waves cross at an
angle theta.  Their combined four-momentum gives a position-dependent
mass m = (hbar*omega/c^2) sin(theta/2) and speed v = c cos(theta/2) along
the bisector.  On a distant screen the maxima of the two-source intensity
sit at the textbook fringe spacing D*lambda/d.

Run:  python3 demos/02_double_slit.py
"""

import math

import numpy as np

from qmasslab import doubleslit as ds

cfg = ds.SlitConfig(d=1.0, omega=2 * math.pi / 0.05)

print("Local interference state along the symmetry axis (equal amplitudes):")
for x in (0.2, 0.5, 1.0, 3.0, 10.0):
    st = ds.weighted_local_state((x, 0.0), cfg)
    theta = ds.intersection_angle((x, 0.0), cfg)
    print(f"  x = {x:5.1f}  theta = {math.degrees(theta):7.2f} deg  "
          f"m = {st.m:8.4f}  |v| = {np.hypot(*st.v):.4f}")

print()
print("Mass map: the midpoint between the slits is a pure standing wave")
mid = ds.weighted_local_state((0.0, 0.0), cfg)
print(f"  mass at midpoint = {mid.m:.6f}  (hbar*omega/c^2 = {cfg.omega:.6f})")

print()
print("Energy flow line launched in the far field follows a radial ray:")
start = 25.0 * np.array([math.cos(0.4), math.sin(0.4)])
traj = ds.integrate_trajectory(start, cfg, max_steps=400)
steps = np.diff(traj.points, axis=0)
r = np.hypot(*traj.points[:-1].T)
radial = traj.points[:-1] / r[:, None]
dev = np.arccos(np.clip(np.sum(steps * radial, axis=1) / np.hypot(*steps.T), -1, 1))
print(f"  {len(traj.points)} points, terminated: {traj.termination}, "
      f"max deviation from radial: {np.max(dev):.2e} rad")

print()
print("Fringe spacing on a screen at D = 50 d:")
report = ds.fringe_spacing_measured(ds.SlitConfig(d=0.5, omega=2 * math.pi / 0.01), 50.0)
print(f"  far field D*lambda/d = {50.0 * 0.01 / 0.5:.6f}")
print(f"  predicted from the 2nd-order path difference = {report.predicted:.6f}")
print(f"  measured from intensity maxima = {report.measured:.6f} "
      f"(rel error {abs(report.measured / report.predicted - 1):.2e})")
