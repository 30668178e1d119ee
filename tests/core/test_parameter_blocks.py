"""One reader of a parameter set: packing, reading and lowering.

:func:`~repro.core.multi_input.block_from_parameters` packs sets of
either kind into the sample block of their width and
:func:`~repro.core.multi_input.parameters_at` reads a record of either
dtype back; :func:`~repro.core.multi_input.as_closed_form` lowers an
``n = 2`` set or block to the paper's closed-form kind, the inverse of
``paper_generalized(2, ·)``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.multi_input import (GeneralizedNorParameters,
                                    as_closed_form, block_from_parameters,
                                    generalized_dtype, is_closed_form,
                                    paper_generalized, parameters_at)
from repro.core.parameters import (BLOCK_DTYPE, PAPER_TABLE_I,
                                   NorGateParameters)
from repro.errors import ParameterError

_resistances = st.floats(min_value=1e2, max_value=1e6)
_capacitances = st.floats(min_value=1e-18, max_value=1e-12)
_voltages = st.floats(min_value=0.1, max_value=5.0)
_delays = st.floats(min_value=0.0, max_value=1e-9)


@st.composite
def two_input_sets(draw):
    return NorGateParameters(
        r1=draw(_resistances), r2=draw(_resistances),
        r3=draw(_resistances), r4=draw(_resistances),
        cn=draw(_capacitances), co=draw(_capacitances),
        vdd=draw(_voltages), delta_min=draw(_delays))


@st.composite
def n_input_sets(draw, n):
    return GeneralizedNorParameters(
        r_pullup=draw(st.lists(_resistances, min_size=n, max_size=n)),
        r_pulldown=draw(st.lists(_resistances, min_size=n, max_size=n)),
        c_internal=draw(st.lists(_capacitances, min_size=n - 1,
                                 max_size=n - 1)),
        co=draw(_capacitances), vdd=draw(_voltages),
        delta_min=draw(_delays))


@st.composite
def set_lists(draw):
    """A non-empty list of sets of one kind and width: the paper's
    closed-form kind (``None``) or n-input sets of one width."""
    width = draw(st.sampled_from([None, 2, 3, 4, 5]))
    sets = two_input_sets() if width is None else n_input_sets(width)
    return draw(st.lists(sets, min_size=1, max_size=6))


class TestRoundTrip:
    @given(sets=set_lists())
    def test_every_record_reads_back_as_its_set(self, sets):
        block = block_from_parameters(sets)
        assert block.shape == (len(sets),)
        assert [parameters_at(block, i) for i in range(len(sets))] \
            == sets

    @given(params=two_input_sets())
    def test_dtype_follows_the_kind(self, params):
        assert block_from_parameters(params).dtype == BLOCK_DTYPE
        wide = paper_generalized(3, params)
        assert block_from_parameters(wide).dtype == generalized_dtype(3)

    @given(params=two_input_sets())
    def test_lowering_inverts_paper_generalized(self, params):
        narrow = paper_generalized(2, params)
        assert as_closed_form(narrow) == params
        block = block_from_parameters([params, params.replace(co=1e-15)])
        lowered = as_closed_form(paper_generalized(2, block))
        assert lowered.dtype == BLOCK_DTYPE
        assert lowered.tobytes() == block.tobytes()


class TestContract:
    def test_a_block_passes_through(self):
        block = block_from_parameters([PAPER_TABLE_I] * 3)
        assert block_from_parameters(block) is block
        wide = paper_generalized(3, block)
        assert block_from_parameters(wide) is wide

    @pytest.mark.parametrize("sets", [
        [PAPER_TABLE_I, paper_generalized(2)],
        [paper_generalized(3), paper_generalized(4)],
        [paper_generalized(3), PAPER_TABLE_I],
        [],
        [PAPER_TABLE_I, "r1"],
    ], ids=["kinds", "widths", "kinds-n", "empty", "not-a-set"])
    def test_mixed_or_empty_sequences_raise(self, sets):
        with pytest.raises(ParameterError):
            block_from_parameters(sets)

    def test_an_unknown_dtype_raises(self):
        with pytest.raises(ParameterError):
            block_from_parameters(np.zeros(3))

    def test_closed_form_kind(self):
        block = block_from_parameters(PAPER_TABLE_I)
        assert is_closed_form(PAPER_TABLE_I) and is_closed_form(block)
        assert not is_closed_form(paper_generalized(2))
        assert not is_closed_form(paper_generalized(2, block))
        assert as_closed_form(PAPER_TABLE_I) is PAPER_TABLE_I
        assert as_closed_form(block) is block

    def test_wider_sets_do_not_lower(self):
        for params in (paper_generalized(3),
                       paper_generalized(3, block_from_parameters(
                           PAPER_TABLE_I))):
            with pytest.raises(ParameterError, match="3-input"):
                as_closed_form(params)
