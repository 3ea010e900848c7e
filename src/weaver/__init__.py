"""Exact and Monte Carlo tools for the binary weaving cascade.

A depth-``n`` weave scatters mass ``p**ones(k) * (1-p)**(n-ones(k))`` onto
the lattice point ``k/(2**n - 1)``; the modules here build that law with
rational arithmetic, simulate the two-population sampling scheme that
realizes it, and expose the closed-form moment and variance structure.
"""
