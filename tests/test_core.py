import importlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoa_lab.core import RATE_FLOOR, AgeVector, Params, SystemState, make_params, shorthand
from aoa_lab.errors import DomainError

valid_prob = st.floats(min_value=RATE_FLOOR, max_value=1.0, allow_nan=False)


class TestMakeParams:
    def test_interior_point(self):
        p = make_params(0.5, 0.5)
        assert p.lambda1 == 0.5 and p.lambda2 == 0.5

    def test_upper_corner_allowed(self):
        p = make_params(1.0, 1.0)
        assert p.lambda1 == 1.0 and p.lambda2 == 1.0

    def test_values_stored_exactly(self):
        p = make_params(0.123456789, 0.987654321)
        assert p.lambda1 == 0.123456789 and p.lambda2 == 0.987654321

    @pytest.mark.parametrize("l1,l2,field", [
        (0.0, 0.5, "lambda1"),
        (0.5, 0.0, "lambda2"),
        (-0.1, 0.5, "lambda1"),
        (0.5, 1.5, "lambda2"),
        (1.0000001, 0.5, "lambda1"),
    ])
    def test_out_of_domain_rejected_naming_field(self, l1, l2, field):
        with pytest.raises(DomainError, match=field):
            make_params(l1, l2)

    @pytest.mark.parametrize("build", [Params, make_params])
    def test_domain_is_the_floor_to_one(self, build):
        assert RATE_FLOOR == 0.01
        for edge in (RATE_FLOOR, 1.0):
            assert build(edge, edge) == Params(edge, edge)
        below = math.nextafter(RATE_FLOOR, 0)
        for args, field in (((below, 0.5), "lambda1"), ((0.5, below), "lambda2")):
            with pytest.raises(DomainError) as exc:
                build(*args)
            assert str(exc.value) == f"{field} must be in [0.01, 1], got {below}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            make_params(bad, 0.5)
        with pytest.raises(DomainError):
            make_params(0.5, bad)


class TestShorthand:
    def test_symmetric_point(self):
        s = shorthand(make_params(0.5, 0.5))
        assert s.w == s.x == s.y == s.z == 0.25

    def test_certain_data(self):
        s = shorthand(make_params(1.0, 0.3))
        assert s.w == pytest.approx(0.3, abs=1e-15)
        assert s.x == pytest.approx(0.7, abs=1e-15)
        assert s.y == 0.0 and s.z == 0.0

    def test_hand_multiplied_point(self):
        s = shorthand(make_params(0.2, 0.1))
        assert s.w == pytest.approx(0.02, abs=1e-15)
        assert s.x == pytest.approx(0.18, abs=1e-15)
        assert s.y == pytest.approx(0.08, abs=1e-15)
        assert s.z == pytest.approx(0.72, abs=1e-15)

    @given(valid_prob, valid_prob)
    def test_partition_of_unity(self, l1, l2):
        s = shorthand(make_params(l1, l2))
        assert abs(s.w + s.x + s.y + s.z - 1.0) <= 1e-12

    @given(valid_prob, valid_prob)
    def test_fields_are_the_defining_products(self, l1, l2):
        s = shorthand(make_params(l1, l2))
        assert abs(s.w - l1 * l2) <= 1e-15
        assert abs(s.x - l1 * (1 - l2)) <= 1e-15
        assert abs(s.y - (1 - l1) * l2) <= 1e-15
        assert abs(s.z - (1 - l1) * (1 - l2)) <= 1e-15


class TestSystemState:
    @pytest.mark.parametrize("c,b", [(0, 0), (0, 1), (1, 0)])
    def test_feasible_states(self, c, b):
        s = SystemState(c, b)
        assert (s.cache, s.battery) == (c, b)

    def test_full_full_unrepresentable(self):
        with pytest.raises(DomainError):
            SystemState(1, 1)

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            SystemState(2, 0)


class TestAgeVector:
    def test_valid(self):
        v = AgeVector(3, 1, 3)
        assert (v.aoi, v.aoa, v.aoai) == (3, 1, 3)

    @pytest.mark.parametrize("aoi,aoa,aoai", [
        (0, 1, 1), (1, 0, 1), (1, 1, 0),   # below the floor of 1
        (3, 1, 2),                          # aoai must dominate aoi
        (1, 4, 3),                          # aoai must dominate aoa
    ])
    def test_invalid_rejected(self, aoi, aoa, aoai):
        with pytest.raises(DomainError):
            AgeVector(aoi, aoa, aoai)

    def test_aoi_and_aoa_are_unordered(self):
        # Both orders occur along real trajectories.
        AgeVector(aoi=5, aoa=2, aoai=5)
        AgeVector(aoi=2, aoa=5, aoai=6)


@pytest.mark.parametrize("module", ["aoa_lab", "aoa_lab.analytic", "aoa_lab.chains",
                                    "aoa_lab.core", "aoa_lab.engine", "aoa_lab.validation"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = []
    for name in mod.__all__:
        try:
            getattr(mod, name)
        except AttributeError:
            missing.append(name)
    assert not missing
