import pickle

import pytest

from repro.seu import CampaignConfig
from repro.seu.campaign import HalfLatchFaultModel, SEUFaultModel
from tests.utils.reference_models import _REFERENCES, reference_model

CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)


class TestReferenceModel:
    def test_both_shrinkers_on_is_the_product_model(self, mult_hw):
        model = SEUFaultModel(mult_hw.spec, mult_hw.device.name, CFG)
        assert reference_model(model) is model

    @pytest.mark.parametrize("product", [SEUFaultModel, HalfLatchFaultModel])
    def test_references_keep_key_and_fields_and_pickle(self, mult_hw, product):
        model = product(mult_hw.spec, mult_hw.device.name, CFG)
        for (cls, collapse, retire), ref_cls in _REFERENCES.items():
            if cls is not product:
                continue
            ref = reference_model(model, collapse=collapse, retire=retire)
            assert type(ref) is ref_cls
            # Same key: checkpoints carry over between product and reference.
            assert ref.key() == model.key()
            assert ref.collapsible is collapse
            assert type(pickle.loads(pickle.dumps(ref))) is ref_cls
