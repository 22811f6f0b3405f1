"""Kernel backend selection: compiled extension if built, else pure Python.

``BACKEND`` is "cython" or "python"; both backends expose identical
``xi_condition_sum`` and ``moment_pair_counts`` functions and are compared in
tests/test_weingarten.py when the extension is built.
"""

try:
    from pagecurve._enumeration import moment_pair_counts, xi_condition_sum

    BACKEND = "cython"
except ImportError:  # extension not built
    from pagecurve._enum_py import moment_pair_counts, xi_condition_sum

    BACKEND = "python"

__all__ = ["BACKEND", "moment_pair_counts", "xi_condition_sum"]
