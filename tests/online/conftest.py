"""Test-side arms for the candidate-kernel equivalence tests.

Production dispatch has one candidate path and no switch.  The comparisons
that used to flip a config flag get their second arm here instead: the scalar
oracle substituted for the kernel's one query, or the grid prefilter kept
from engaging.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.online import candidates as candidates_module
from repro.online.candidates import CandidateKernel

from ..candidate_oracle import candidates_for_window_scalar


@contextmanager
def scalar_oracle():
    """Every kernel query inside the block runs the scalar reference loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CandidateKernel, "candidates_for_window", candidates_for_window_scalar)
        yield


@contextmanager
def index_off():
    """Kernels built inside the block scan the whole fleet (no grid index)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(candidates_module, "_MIN_INDEX_FLEET", float("inf"))
        yield
