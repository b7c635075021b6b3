"""The public API: `from rolecolor import *` gives every name in `__all__`, and
the helpers that only the tests use are not shipped in the package."""

import inspect

import pytest

import rolecolor
from rolecolor import GadgetGraph, Graph, Hypergraph, RoleColoring, RoleGraph, reductions


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from rolecolor import *", namespace)
    for name in rolecolor.__all__:
        assert namespace[name] is getattr(rolecolor, name)


def test_all_has_no_repeats():
    assert len(set(rolecolor.__all__)) == len(rolecolor.__all__)


@pytest.mark.parametrize(
    "owner, name",
    [
        (rolecolor, "CannotExtract"),
        (rolecolor, "extract_beta"),
        (rolecolor, "lift_coloring"),
        (rolecolor, "one_role_decision"),
        (reductions, "CannotExtract"),
        (reductions, "extract_beta"),
        (reductions, "lift_coloring"),
        (reductions, "_lift_k3"),
        (reductions, "_lift_k4"),
        (reductions, "_lift_kpath"),
        (GadgetGraph, "vertices_tagged"),
        (GadgetGraph, "q_count"),
        (Graph, "has_edge"),
        (Hypergraph, "is_connected"),
        (RoleGraph, "is_connected"),
        (RoleGraph, "degree"),
        (RoleColoring, "color"),
    ],
)
def test_test_only_helpers_are_not_shipped(owner, name):
    # they live in tests/gadget_proofs.py, tests/naive.py and tests/generators.py
    assert not hasattr(owner, name)


@pytest.mark.parametrize(
    "search, params",
    [
        (rolecolor.solve_k_role, ["g", "k", "mode", "budget", "limit"]),
        (rolecolor.solve_r_role, ["g", "r", "mode", "budget", "limit"]),
    ],
)
def test_search_signatures(search, params):
    # the shipped engine has one configuration: no switch for its rules
    assert list(inspect.signature(search).parameters) == params
