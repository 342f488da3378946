"""``implement`` is byte-stable: bitstream, PIPs, ``wire_net`` and the
decoded arrays of four reference designs match their pinned SHAs.

The verdict goldens would catch most router or decoder drift only
indirectly (a moved PIP need not move a verdict); these pins make the
byte identity of the CAD flow itself a checked contract.
"""

import pytest

from repro.fpga import get_device
from repro.place import implement
from tests.utils.goldens import assert_golden, implement_cases, implement_sha

CASES = implement_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_implement_matches_pin(name):
    spec, device = CASES[name]
    assert_golden(name, implement_sha(implement(spec, get_device(device))))
