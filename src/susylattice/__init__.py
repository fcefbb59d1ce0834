"""Exact numerical laboratory for supersymmetric fermion-lattice models:
finite-size Fock and collective-spin representations plus the probes that
make their infinite-volume limits falsifiable."""

# scipy.linalg goes first: it loads scipy's OpenBLAS, whose worker thread
# busy-waits for about 2^28 cycles (~0.1 s of CPU) after it starts.  Loaded
# before scipy.sparse, that spin overlaps the rest of the import instead of
# the first operation of a run.
import scipy.linalg  # noqa: F401

__version__ = "1.0.0"
