"""Tests for the ground-truth fault model."""

import numpy as np
import pytest

from repro.actions import REBOOT, RMA, TRYNOP, default_catalog
from repro.cluster.faults import FaultCatalog, FaultType, validate_fault_catalog
from repro.errors import ConfigurationError


def fault(name="f", primary="error:X", cures=None, weight=1.0, **kwargs):
    return FaultType(
        name=name,
        primary_symptom=primary,
        cure_probabilities=cures or {"REBOOT": 0.8},
        weight=weight,
        **kwargs,
    )


class TestFaultType:
    def test_cure_probability_lookup(self):
        f = fault(cures={"TRYNOP": 0.2, "REBOOT": 0.9})
        assert f.cure_probability(TRYNOP) == pytest.approx(0.2)
        assert f.cure_probability(REBOOT) == pytest.approx(0.9)

    def test_missing_action_raw_probability_is_zero(self):
        assert fault(cures={"REIMAGE": 0.5}).cure_probability(TRYNOP) == 0.0

    def test_manual_action_always_cures(self):
        assert fault(cures={"REIMAGE": 0.5}).cure_probability(RMA) == 1.0

    def test_all_symptoms_starts_with_primary(self):
        f = FaultType(
            name="f",
            primary_symptom="error:X",
            secondary_symptoms=("warn:A",),
        )
        assert f.all_symptoms == ("error:X", "warn:A")

    def test_primary_cannot_repeat_in_secondaries(self):
        with pytest.raises(ConfigurationError):
            FaultType(
                name="f",
                primary_symptom="error:X",
                secondary_symptoms=("error:X",),
            )

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            fault(cures={"REBOOT": 1.5})

    def test_bad_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            fault(weight=0.0)


class TestFaultCatalog:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultCatalog([fault("a"), fault("a", primary="error:Y")])

    def test_duplicate_primaries_rejected(self):
        with pytest.raises(ConfigurationError, match="primary"):
            FaultCatalog([fault("a"), fault("b")])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultCatalog([])

    def test_lookup(self):
        catalog = FaultCatalog([fault("a")])
        assert catalog["a"].name == "a"
        with pytest.raises(ConfigurationError):
            catalog["missing"]

    def test_occurrence_probabilities_normalized(self):
        catalog = FaultCatalog(
            [
                fault("a", weight=3.0),
                fault("b", primary="error:Y", weight=1.0),
            ]
        )
        probabilities = catalog.occurrence_probabilities()
        assert probabilities["a"] == pytest.approx(0.75)
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_sampling_follows_weights(self):
        catalog = FaultCatalog(
            [
                fault("common", weight=9.0),
                fault("rare", primary="error:Y", weight=1.0),
            ]
        )
        rng = np.random.default_rng(0)
        draws = [
            catalog.fault_types[catalog.index_from_uniform(u)].name
            for u in rng.random(2000).tolist()
        ]
        share = draws.count("common") / len(draws)
        assert 0.85 < share < 0.95


class TestEffectiveCureProbabilities:
    def test_unspecified_inherits_running_maximum(self):
        from repro.cluster.faults import effective_cure_probabilities

        f = fault(cures={"TRYNOP": 0.3, "REBOOT": 0.9})
        effective = effective_cure_probabilities(f, default_catalog())
        assert effective["REIMAGE"] == pytest.approx(0.9)
        assert effective["RMA"] == 1.0

    def test_unspecified_weakest_stays_zero(self):
        from repro.cluster.faults import effective_cure_probabilities

        f = fault(cures={"REIMAGE": 0.8})
        effective = effective_cure_probabilities(f, default_catalog())
        assert effective["TRYNOP"] == 0.0
        assert effective["REBOOT"] == 0.0

    def test_explicit_decrease_rejected(self):
        from repro.cluster.faults import effective_cure_probabilities

        f = fault(cures={"TRYNOP": 0.9, "REIMAGE": 0.2})
        with pytest.raises(ConfigurationError, match="monotone"):
            effective_cure_probabilities(f, default_catalog())


class TestValidationErrorContext:
    """Validation failures must name the offending fault and field —
    a 40-fault generated catalog is undebuggable otherwise."""

    def test_bad_cure_probability_names_fault_and_action(self):
        with pytest.raises(
            ConfigurationError,
            match=r"fault 'flaky'.*cure_probabilities\['REBOOT'\]",
        ):
            fault("flaky", cures={"REBOOT": 1.5})

    def test_bad_secondary_probability_names_fault(self):
        with pytest.raises(
            ConfigurationError, match="fault 'flaky'.*secondary_probability"
        ):
            fault("flaky", secondary_probability=-0.1)

    def test_bad_weight_names_fault(self):
        with pytest.raises(ConfigurationError, match="fault 'flaky'.*weight"):
            fault("flaky", weight=0.0)

    def test_bad_cost_scale_names_fault(self):
        with pytest.raises(
            ConfigurationError, match="fault 'flaky'.*cost_scale"
        ):
            fault("flaky", cost_scale=-1.0)

    def test_repeated_primary_names_fault_and_symptom(self):
        with pytest.raises(
            ConfigurationError, match="fault 'flaky'.*'error:X'"
        ):
            FaultType(
                name="flaky",
                primary_symptom="error:X",
                secondary_symptoms=("error:X",),
            )

    def test_duplicate_names_listed(self):
        with pytest.raises(ConfigurationError, match=r"duplicated: \['a'\]"):
            FaultCatalog([fault("a"), fault("a", primary="error:Y")])

    def test_colliding_primaries_name_both_faults(self):
        with pytest.raises(
            ConfigurationError, match=r"'error:X'.*\['a', 'b'\]"
        ):
            FaultCatalog([fault("a"), fault("b")])

    def test_monotonicity_error_names_fault_and_actions(self):
        catalog = FaultCatalog(
            [fault("hard", cures={"TRYNOP": 0.9, "REBOOT": 0.1})]
        )
        with pytest.raises(
            ConfigurationError, match="fault 'hard'.*REBOOT.*monotone"
        ):
            validate_fault_catalog(catalog, default_catalog())

    def test_unknown_action_error_names_fault_and_action(self):
        catalog = FaultCatalog([fault("hard", cures={"FSCK": 0.5})])
        with pytest.raises(
            ConfigurationError, match="fault 'hard'.*unknown action 'FSCK'"
        ):
            validate_fault_catalog(catalog, default_catalog())


class TestValidateFaultCatalog:
    def test_monotone_cures_pass(self):
        catalog = FaultCatalog(
            [fault("a", cures={"TRYNOP": 0.1, "REBOOT": 0.5, "REIMAGE": 0.9})]
        )
        validate_fault_catalog(catalog, default_catalog())

    def test_decreasing_cures_rejected(self):
        catalog = FaultCatalog(
            [fault("a", cures={"TRYNOP": 0.9, "REBOOT": 0.1})]
        )
        with pytest.raises(ConfigurationError, match="monotone"):
            validate_fault_catalog(catalog, default_catalog())

    def test_unknown_action_rejected(self):
        catalog = FaultCatalog([fault("a", cures={"FSCK": 0.5})])
        with pytest.raises(ConfigurationError, match="unknown action"):
            validate_fault_catalog(catalog, default_catalog())


# ---------------------------------------------------------------------------
# Property-based invariants (hypothesis)
# ---------------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import CompiledFaults, compile_fault_arrays
from repro.util.rng import make_rng


@st.composite
def random_catalogs(draw):
    count = draw(st.integers(1, 6))
    faults = []
    for fid in range(count):
        cures = {}
        running = 0.0
        for name in ("TRYNOP", "REBOOT", "REIMAGE"):
            running = max(running, draw(st.floats(0.0, 1.0, allow_nan=False)))
            if draw(st.booleans()):
                cures[name] = running
        faults.append(
            fault(
                name=f"f{fid}",
                primary=f"error:P{fid}",
                cures=cures,
                weight=draw(st.floats(0.05, 20.0, allow_nan=False)),
                secondary_symptoms=tuple(
                    f"warn:P{fid}s{k}" for k in range(draw(st.integers(0, 3)))
                ),
                secondary_probability=draw(st.floats(0.0, 1.0, allow_nan=False)),
                cost_scale=draw(st.floats(0.1, 5.0, allow_nan=False)),
            )
        )
    return FaultCatalog(faults)


class TestCatalogProperties:
    @given(catalog=random_catalogs())
    @settings(max_examples=60, deadline=None)
    def test_occurrence_probabilities_normalized(self, catalog):
        probabilities = catalog.occurrence_probabilities()
        assert all(p > 0 for p in probabilities.values())
        assert np.isclose(sum(probabilities.values()), 1.0)

    @given(catalog=random_catalogs())
    @settings(max_examples=60, deadline=None)
    def test_cumulative_monotone_and_complete(self, catalog):
        cumulative = catalog.cumulative_probabilities()
        assert np.all(np.diff(cumulative) >= 0)
        assert np.isclose(cumulative[-1], 1.0)
        # The returned array is a copy: mutating it must not perturb
        # subsequent sampling.
        cumulative[:] = 0.0
        assert np.isclose(catalog.cumulative_probabilities()[-1], 1.0)

    @given(
        catalog=random_catalogs(),
        u=st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_index_from_uniform_is_inverse_cdf(self, catalog, u):
        """The scalar and vector forms agree, stay in range, and invert
        the cumulative distribution."""
        index = catalog.index_from_uniform(u)
        assert 0 <= index < len(catalog)
        cumulative = catalog.cumulative_probabilities()
        if index > 0:
            assert u >= cumulative[index - 1]
        if index < len(catalog) - 1:
            assert u < cumulative[index]
        vector = catalog.index_from_uniform(np.array([u]))
        assert vector.dtype == np.intp
        assert int(vector[0]) == index

    @given(catalog=random_catalogs(), seed=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_sample_index_in_range(self, catalog, seed):
        rng = make_rng(seed)
        for u in rng.random(5).tolist():
            assert 0 <= catalog.index_from_uniform(u) < len(catalog)


class TestCompiledFaultsProperties:
    @given(catalog=random_catalogs())
    @settings(max_examples=60, deadline=None)
    def test_cure_matrix_monotone_in_strength(self, catalog):
        """Hypothesis 2 compiled: every row is non-decreasing along the
        strength order and the manual column is exactly 1."""
        actions = default_catalog()
        compiled = compile_fault_arrays(catalog, actions)
        assert isinstance(compiled, CompiledFaults)
        assert compiled.cure.shape == (len(catalog), len(actions.by_strength()))
        assert np.all(np.diff(compiled.cure, axis=1) >= 0)
        manual_column = [
            aid
            for aid, action in enumerate(actions.by_strength())
            if action.manual
        ]
        assert np.all(compiled.cure[:, manual_column] == 1.0)

    @given(catalog=random_catalogs())
    @settings(max_examples=60, deadline=None)
    def test_compiled_arrays_mirror_catalog(self, catalog):
        compiled = compile_fault_arrays(catalog, default_catalog())
        assert compiled.fault_count == len(catalog)
        assert compiled.primary_symptoms == tuple(
            f.primary_symptom for f in catalog
        )
        assert np.array_equal(
            compiled.cumulative, catalog.cumulative_probabilities()
        )
        assert np.array_equal(
            compiled.cost_scale, np.array([f.cost_scale for f in catalog])
        )
        assert compiled.max_secondaries == max(
            (len(f.secondary_symptoms) for f in catalog), default=0
        )

    @given(catalog=random_catalogs(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_index_from_uniform_matches_compiled_cumulative(
        self, catalog, seed
    ):
        """One batch of uniforms maps identically through the catalog's
        scalar path and the compiled cumulative array — the agreement
        the fleet backend's onset wave relies on."""
        compiled = compile_fault_arrays(catalog, default_catalog())
        uniforms = make_rng(seed).random(64)
        vector = catalog.index_from_uniform(uniforms)
        by_compiled = np.minimum(
            np.searchsorted(compiled.cumulative, uniforms, side="right"),
            compiled.fault_count - 1,
        )
        assert np.array_equal(vector, by_compiled)
        for u, index in zip(uniforms, vector):
            assert catalog.index_from_uniform(float(u)) == int(index)
