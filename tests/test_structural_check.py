"""Mutation tests for the structural cross-check of the lower-bound instance.

Each case corrupts ``necessary_construction(3, 1)`` (seven copies of
K_{1,3} joined to a special vertex) and pins the verdict of
`structural_not_colourable`, so that a rewrite of the check can be shown
to agree with the old one on inputs it was not designed for.
"""

from dataclasses import replace

import pytest

from hcchroma.constructions import (
    necessary_construction,
    structural_not_colourable,
    verify_construction,
)
from hcchroma.errors import InputError
from hcchroma.graph import Graph
from helpers import with_extra_colour


@pytest.fixture()
def inst():
    return necessary_construction(3, 1)


def _reversed_blocks(inst):
    return replace(inst, copies=tuple(tuple(reversed(b)) for b in inst.copies))


def _b_vertex_of_copy(inst, j):
    return next(v for v in inst.copies[j - 1] if v in inst.b_side)


def test_reversed_copy_blocks_are_still_refuted(inst):
    assert structural_not_colourable(_reversed_blocks(inst)) is True


def test_extra_colour_on_a_b_vertex_breaks_the_refutation(inst):
    extra = with_extra_colour(inst, _b_vertex_of_copy(inst, 1), (50, 0))
    assert structural_not_colourable(extra) is False


def test_extra_colour_with_reversed_blocks_breaks_the_refutation(inst):
    extra = with_extra_colour(inst, _b_vertex_of_copy(inst, 1), (50, 0))
    assert structural_not_colourable(_reversed_blocks(extra)) is False


def test_removed_intra_copy_edge_breaks_the_refutation(inst):
    block = set(inst.copies[0])
    dropped = next((u, v) for u, v in inst.graph.edges() if u in block and v in block)
    edges = [e for e in inst.graph.edges() if e != dropped]
    cut = replace(inst, graph=Graph.from_edges(inst.graph.n, edges))
    assert structural_not_colourable(cut) is False
    assert verify_construction(cut)[0] is False


@pytest.mark.parametrize("colour", ["foreign", (99, 99), (0, 1), (8, 1), (1, 0, 0)])
def test_foreign_colour_on_the_special_vertex_is_not_refuted(inst, colour):
    extra = with_extra_colour(inst, inst.special_vertex, colour)
    assert structural_not_colourable(extra) is False


def test_missing_copies_make_the_check_inapplicable(inst):
    assert structural_not_colourable(replace(inst, copies=())) is None


def test_repeated_id_in_a_block_keeps_its_verdict(inst):
    # the repeated centre sits at its last block position, with the edges;
    # its first position is an isolated vertex with the centre's list
    first = inst.copies[0]
    doubled = replace(inst, copies=(first + (first[0],),) + inst.copies[1:])
    assert structural_not_colourable(doubled) is True


@pytest.mark.parametrize("stray", [-1, 29], ids=["minus-one", "n"])
def test_block_id_outside_the_graph_is_an_input_error(inst, stray):
    assert inst.graph.n == 29
    first = inst.copies[0]
    bad = replace(inst, copies=(first + (stray,),) + inst.copies[1:])
    with pytest.raises(InputError):
        structural_not_colourable(bad)
