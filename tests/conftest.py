import pytest


@pytest.fixture
def noise_draws(monkeypatch):
    """The shape of every feature-noise draw made while the test runs."""
    from hesspec import features

    made = []
    real = features._standardized_noise

    def counted(dist, shape, rng, out=None):
        made.append(shape)     # list.append is atomic across pool threads
        return real(dist, shape, rng, out)

    monkeypatch.setattr(features, "_standardized_noise", counted)
    return made
