"""Simulator and analysis toolkit for variable-strength weak measurements
on a coupled electron-nuclear spin pair."""

import os

# One BLAS thread, set before numpy loads OpenBLAS.  Every BLAS/LAPACK call
# in the package works on 2x2 or 4x4 operands: the ``@`` products of
# ``spinsys._node_pulse`` and ``qmath.purity``, ``np.linalg.eigvalsh`` in
# ``qmath._eigenvalues`` and ``spinsys.negativity``, and ``np.linalg.eigh``
# in ``Protocol.initial_statevector``; the shot engine is elementwise
# numpy.  None of them can use a second thread, but a pthreads
# OpenBLAS starts its pool at load and the idle threads spin for about
# 0.09 s of CPU before they sleep.  A value the caller set wins; a process
# that loaded numpy before importing weakmeas keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import montecarlo, protocols, qmath, spinsys  # noqa: E402, F401

__version__ = "0.1.0"
