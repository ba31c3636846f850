"""Shared pytest marks."""
import os

import pytest


def needs_extended(test):
    """Mark a multi-minute test ``extended`` and skip it unless
    ``RECTFREE_EXTENDED=1``, so ``-m extended`` selects it."""
    skip = pytest.mark.skipif(
        os.environ.get("RECTFREE_EXTENDED") != "1",
        reason="multi-minute run: set RECTFREE_EXTENDED=1 to enable")
    return pytest.mark.extended(skip(test))
