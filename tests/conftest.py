"""Fixtures shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """``bmst ber`` forks children for one Monte Carlo batch at a time;
    none may outlive the call that started it."""
    yield
    assert multiprocessing.active_children() == []
