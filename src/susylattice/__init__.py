"""Exact numerical laboratory for supersymmetric fermion-lattice models:
finite-size Fock and collective-spin representations plus the probes that
make their infinite-volume limits falsifiable."""

__version__ = "1.0.0"
