import hashlib
import json
from fractions import Fraction

import pytest

from saddlekit import mc
from saddlekit.surface import TranslationSurface
from saddlekit.sv import AnnulusIndicator, SectorIndicator


def test_stratum_sampler_rejects_invalid_surfaces_only(octagon, monkeypatch):
    validate = TranslationSurface.validate

    def broken_for_candidates(self):
        if self is octagon:
            return validate(self)
        raise RuntimeError("bug in validation")

    monkeypatch.setattr(TranslationSurface, "validate", broken_for_candidates)
    # A program error must surface, not be counted as a rejected candidate.
    with pytest.raises(RuntimeError):
        mc.sample_stratum_local(octagon, "0.05", 2, seed=7)


def test_stratum_sample_is_pinned(octagon):
    sample = mc.sample_stratum_local(octagon, "0.05", 50, seed=7)
    text = "\n".join(s.to_json() for s in sample.surfaces)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8a663023cf6973d012ab9553d24e994f3e1ca534a5e023670b6630998c40b4e2"
    )


@pytest.mark.parametrize(
    "f",
    [SectorIndicator(Fraction(4), 0.3, 0.6), AnnulusIndicator(Fraction(2), Fraction(5))],
    ids=["sector", "annulus"],
)
def test_haar_mean_is_bit_identical_for_a_fixed_seed(f):
    reports = [
        json.dumps(mc.estimate_mean_transform(mc.sample_torus_haar(300, seed=11), f).to_json_dict())
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["n_samples"] == 300

