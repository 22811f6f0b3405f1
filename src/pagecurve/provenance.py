"""Identifiers of the sampling route that run records carry.

They live here, apart from the numpy-backed modules that implement the
route, so that the CLI can write a record's metadata without importing
numpy.  `haar` and `montecarlo` re-export them.
"""

__all__ = ["RNG_ALGORITHM", "SAMPLER", "SAMPLING_BLAS_THREADS"]

RNG_ALGORITHM = "philox4x64"  # numpy's counter-based Philox generator
SAMPLER = "haar-row-frame-jacobi"  # names the two draws, their selection rule and the stream keys
SAMPLING_BLAS_THREADS = 1  # OpenBLAS threads of every sampling process
