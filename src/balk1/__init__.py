"""Balanced pairs of contractions, from exact algebra to circle operators.

Subpackages and modules:

* ``starpoly``  -- exact *-polynomials, relation ideals, membership certificates
* ``relations`` -- the twelve balanced-pair relations as one table
* ``numkern``   -- dense complex matrix kernel (norms, unitary spectra)
* ``balanced``  -- numerical balanced pairs, homotopies, finite splits
* ``loops``     -- matrix loops on the circle, winding and topological index
* ``opmodel``   -- truncated circle operators, tail norms, splitting projections
* ``relindex``  -- Fredholm index engines and the relative index pipeline
* ``cli``       -- command line entry point
"""

__version__ = "0.1.0"
