import pytest

from saddlekit import mc
from saddlekit.surface import TranslationSurface


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
