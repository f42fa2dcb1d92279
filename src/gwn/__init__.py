"""Gamma white noise calculus over finite atomic reference measures.

Submodules:

* ``measure``     - atomic measures, test functions, point-mass conventions
* ``symtensor``   - symmetric tensors on sorted multi-indices, Fock vectors
* ``extfock``     - loop partitions and the n!-weighted extended inner product
* ``fieldops``    - creation/neutral/annihilation operators, Jacobi structure
* ``wickcalc``    - Gamma-Wick powers, Laguerre systems, S-transform, Wick product
* ``gammasample`` - Gamma and compound-Poisson samplers, Monte Carlo estimates
* ``funcalc``     - difference operators and integral representations
* ``cli``         - the ``gwn`` command line tool
"""

__version__ = "0.1.0"
