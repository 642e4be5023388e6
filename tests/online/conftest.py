"""Test-side arms for the candidate-kernel equivalence tests.

Production dispatch has one candidate path and no switch.  The comparisons
that used to flip a config flag get their second arm here instead: the scalar
oracle substituted for both kernel queries, or the grid prefilter kept from
engaging.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.online import candidates as candidates_module
from repro.online.candidates import CandidateKernel

from ..candidate_oracle import candidates_for_scalar


def _scalar_window(kernel, task_indices, now_ts):
    out = {}
    for m in task_indices:
        found = candidates_for_scalar(kernel, m, kernel.instance.tasks[m], now_ts)
        if found:
            out[m] = found
    return out


@contextmanager
def scalar_oracle():
    """Every kernel query inside the block runs the scalar reference loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CandidateKernel, "candidates_for", candidates_for_scalar)
        patch.setattr(CandidateKernel, "candidates_for_window", _scalar_window)
        yield


@contextmanager
def index_off():
    """Kernels built inside the block scan the whole fleet (no grid index)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(candidates_module, "_MIN_INDEX_FLEET", float("inf"))
        yield
