import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetlab import (
    CoherentLabel,
    coherent_inner_product,
    displacement_composition_phase,
    make_curl_gaussian,
    mean_electric_field,
)
from qetlab.coherent import symplectic_form, vacuum_overlap_with_gauge_displacement

from oracles import weighted_norm_reference


def _label(rng) -> CoherentLabel:
    def field():
        axis = rng.normal(size=3)
        return make_curl_gaussian(
            float(rng.uniform(-1.2, 1.2)),
            float(rng.uniform(0.6, 1.5)),
            center=tuple(rng.uniform(-0.8, 0.8, size=3)),
            axis=tuple(axis / np.linalg.norm(axis)),
        ).spectrum()

    which = rng.integers(0, 3)
    if which == 0:
        return CoherentLabel(p=field())
    if which == 1:
        return CoherentLabel(q=field())
    return CoherentLabel(p=field(), q=field())


class TestInnerProduct:
    def test_normalized(self, canonical_field):
        l1 = CoherentLabel(p=canonical_field.spectrum(), q=canonical_field.spectrum().scaled(0.5))
        assert coherent_inner_product(l1, l1) == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_overlap_with_doubled_gauge_displacement(self, canonical_field):
        # reduces to exp[-int d^3k |k|/(2pi)^3 |a~|^2] = exp(-8 pi/3)
        lbl = CoherentLabel(q=canonical_field.spectrum().scaled(2.0))
        got = coherent_inner_product(CoherentLabel(), lbl)
        expected = np.exp(-weighted_norm_reference(1.0, 1.0, 1))
        assert got.imag == 0.0
        np.testing.assert_allclose(got.real, expected, rtol=1e-9)
        np.testing.assert_allclose(
            vacuum_overlap_with_gauge_displacement(canonical_field.spectrum().scaled(2.0)),
            expected,
            rtol=1e-9,
        )

    def test_swap_conjugates(self, rng):
        for _ in range(5):
            l1, l2 = _label(rng), _label(rng)
            np.testing.assert_allclose(
                coherent_inner_product(l1, l2),
                np.conj(coherent_inner_product(l2, l1)),
                rtol=1e-12,
                atol=1e-300,
            )

    def test_modulus_bounded_with_equality_iff_equal(self, rng):
        for _ in range(8):
            l1, l2 = _label(rng), _label(rng)
            val = abs(coherent_inner_product(l1, l2))
            assert val <= 1.0 + 1e-12
            assert abs(coherent_inner_product(l1, l1)) == pytest.approx(1.0, abs=1e-13)
            if val > 1.0 - 1e-12:
                # only (numerically) equal labels may saturate the bound
                d = abs(coherent_inner_product(l1, l1.negated()))
                assert d <= 1.0


class TestComposition:
    def test_vacuum_is_identity(self, canonical_field):
        l1 = CoherentLabel(p=canonical_field.spectrum())
        phase, combined = displacement_composition_phase(l1, CoherentLabel())
        assert phase == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert combined.p is l1.p
        assert combined.q is None

    def test_quarter_turn_phase(self, canonical_field):
        # scale q so the symplectic pairing is exactly pi: phase e^{i pi/2} = i
        p = canonical_field.spectrum()
        q = canonical_field.spectrum()
        pairing = symplectic_form(CoherentLabel(p=p), CoherentLabel(q=q))
        q = q.scaled(np.pi / pairing)
        phase, _ = displacement_composition_phase(CoherentLabel(p=p), CoherentLabel(q=q))
        np.testing.assert_allclose(phase, 1j, rtol=1e-12)

    def test_inverse_label_composes_to_vacuum(self, rng):
        l1 = _label(rng)
        phase, combined = displacement_composition_phase(l1, l1.negated())
        np.testing.assert_allclose(phase, 1.0, rtol=1e-12)
        assert combined.is_vacuum

    def test_unit_modulus(self, rng):
        for _ in range(5):
            phase, _ = displacement_composition_phase(_label(rng), _label(rng))
            assert abs(phase) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=10)
@given(seed=st.integers(0, 10_000))
def test_cocycle_associativity(seed):
    rng = np.random.default_rng(seed)
    l1, l2, l3 = _label(rng), _label(rng), _label(rng)

    p12, c12 = displacement_composition_phase(l1, l2)
    p12_3, c123_left = displacement_composition_phase(c12, l3)
    left_phase = p12 * p12_3

    p23, c23 = displacement_composition_phase(l2, l3)
    p1_23, c123_right = displacement_composition_phase(l1, c23)
    right_phase = p23 * p1_23

    np.testing.assert_allclose(left_phase, right_phase, rtol=1e-10, atol=1e-12)
    k = rng.normal(size=(4, 3))
    for side_l, side_r in ((c123_left.p, c123_right.p), (c123_left.q, c123_right.q)):
        lv = side_l(k) if side_l is not None else np.zeros((4, 3), dtype=complex)
        rv = side_r(k) if side_r is not None else np.zeros((4, 3), dtype=complex)
        np.testing.assert_allclose(lv, rv, rtol=1e-12, atol=1e-14)


class TestDisplacedFieldRelation:
    def test_mean_field_equals_displacement(self, rng):
        # eigenvalue-relation consistency: <E(x)> on |(p,q)> equals p(x)
        p_field = make_curl_gaussian(0.9, 1.0, axis=(0.2, -1.0, 0.5))
        q_field = make_curl_gaussian(0.5, 1.2, axis=(1.0, 0.0, 0.0))
        label = CoherentLabel(p=p_field.spectrum(), q=q_field.spectrum())
        for _ in range(4):
            x = rng.uniform(-1.5, 1.5, size=3)
            got = mean_electric_field(label, x)
            np.testing.assert_allclose(got, p_field(x), atol=2e-6)

    def test_pure_gauge_label_has_zero_mean_field(self, canonical_field, rng):
        label = CoherentLabel(q=canonical_field.spectrum())
        x = rng.uniform(-1.0, 1.0, size=3)
        np.testing.assert_allclose(mean_electric_field(label, x), 0.0, atol=1e-9)
