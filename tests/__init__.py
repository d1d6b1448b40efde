"""Test package (unique module namespace under pytest's import mode)."""

import pytest

#: Test-id mark for the one modular reducer.  Tests that ran once per
#: reducer backend keep ``barrett`` in their ids, so their history reads
#: on past the Montgomery kernel's removal; the mark adds the id and no
#: argument.
BARRETT = pytest.mark.parametrize((), [pytest.param(id="barrett")])
