"""The layers module's master property: every analytic gradient matches
central finite differences in double precision."""

import pytest

from microvoc import gradcheck, trainer
from microvoc.layers import KINDS


@pytest.mark.parametrize("kind", ["conv", "relu", "maxpool", "lrn", "dropout",
                                  "fc", "softmax"])
def test_layer_gradients_match_finite_differences(kind):
    err = gradcheck.run_checks(kind)[kind]
    assert err < gradcheck.THRESHOLD, f"{kind}: max relative error {err:.3e}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_whole_network_gradient(seed):
    err = gradcheck.check_network(seed)
    assert err < gradcheck.THRESHOLD


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        gradcheck.run_checks("batchnorm")


def test_rel_error_definition():
    import numpy as np
    a = np.array([1.0, 0.0])
    b = np.array([1.0 + 1e-6, 0.0])
    err = gradcheck.max_rel_error(a, b)
    assert abs(err - 1e-6 / (2 + 1e-6)) < 1e-12


def test_every_kind_has_geometry_dispatch_and_gradcheck_case():
    assert set(KINDS) == set(trainer.DISPATCH) == set(gradcheck.CASES)
    assert gradcheck.LAYER_KINDS == (*KINDS, "network")
