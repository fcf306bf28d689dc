"""Exact finite models for rank-one unitary Hecke theory.

Everything in this package computes over exact coefficients (arbitrary
precision rationals or prime fields), so
every identity it checks is checked on the nose, never up to rounding.

Submodules:

- ``scalars``   exact rationals, primality, p-adic valuations
- ``linalg``    dense exact matrices: kernels, determinants, char polys, SNF
- ``poly``      dense polynomials over the rationals
- ``tree``      balls in the (l^3+1, l+1)-biregular tree and its Hecke identities
- ``cosets``    finite coset-graph model: level raising maps, duality, congruence data
- ``satake``    degree functions, the spherical eigenvalue dictionary, eigensystem tests
- ``lparam``    moduli of tame parameter pairs (phi, N) with Ad(phi)N = l N
- ``slope``     characteristic series, Newton polygons, slope factorization/decomposition
- ``analytic``  truncated locally analytic induction model and weight characters
- ``cli``       command line front end emitting deterministic structured reports
"""

__version__ = "0.1.0"
