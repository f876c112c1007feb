"""Tests for the model specification file format."""

import math
import os

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_lab import SpecFileError, modelspec
from qcrb_lab.modelspec import (
    build_model_spec,
    load_model_spec,
    parse_angle,
    parse_matrix,
    parse_vector,
)


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("pi/8", math.pi / 8),
        ("2*pi/3", 2 * math.pi / 3),
        ("-pi", -math.pi),
        ("(pi + pi)/4", math.pi / 2),
        ("pi**2", math.pi ** 2),
        (0.25, 0.25),
        (3, 3.0),
    ])
    def test_valid(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("text", ["pi)", "import os", "phi", "1/0*[]", "2,3"])
    def test_invalid_expressions(self, text):
        with pytest.raises(SpecFileError):
            parse_angle(text)

    def test_field_is_named(self):
        with pytest.raises(SpecFileError) as excinfo:
            parse_angle("nope", fieldname="phi.start")
        assert excinfo.value.field == "phi.start"


class TestMatrixParsing:
    def test_square_matrix(self):
        matrix = parse_matrix([[1, 0], [0, 0], [0, 0], [1, 0]], fieldname="m")
        assert np.array_equal(matrix, np.array([[1, 0], [0, 1]], dtype=complex))

    def test_vector(self):
        vec = parse_vector([[0, 1], [0, -1]], fieldname="v")
        assert np.array_equal(vec, np.array([1j, -1j]))

    def test_non_square_rejected(self):
        with pytest.raises(SpecFileError, match="square"):
            parse_matrix([[1, 0]] * 3, fieldname="m")

    def test_bad_pair_rejected(self):
        with pytest.raises(SpecFileError, match="pair"):
            parse_matrix([[1, 0], [2], [0, 0], [1, 0]], fieldname="m")

    @staticmethod
    def per_pair_vector(entries, fieldname):
        """The earlier build: one ``complex`` per pair, each component read
        by ``modelspec._number``, the first bad pair named by index."""
        if not isinstance(entries, (list, tuple)) or not entries:
            raise SpecFileError("expected a non-empty list of [re, im] pairs",
                                field=fieldname)
        values = []
        for k, pair in enumerate(entries):
            if isinstance(pair, (list, tuple)) and len(pair) == 2:
                try:
                    values.append(complex(*(modelspec._number(x, fieldname=fieldname)
                                            for x in pair)))
                    continue
                except SpecFileError:
                    pass
            raise SpecFileError(f"entry {k} is not an [re, im] pair: {pair!r}",
                                field=fieldname)
        return np.array(values, dtype=complex)

    @staticmethod
    def outcome(parse, entries):
        try:
            return parse(entries, fieldname="m").tobytes()
        except SpecFileError as exc:
            return str(exc), exc.field

    def test_large_density_matches_the_per_pair_build(self):
        """A 128 x 128 density's 16,384 pairs, with YAML's string floats
        and ints among them."""
        rng = np.random.default_rng(7)
        entries = [[float(re), float(im)] for re, im in rng.normal(size=(16384, 2))]
        entries[3], entries[40], entries[16383] = ["1e-1", 2], (0, "-3.5E2"), [1, -0.0]
        expected = self.per_pair_vector(entries, "m").reshape(128, 128)
        assert parse_matrix(entries, fieldname="m").tobytes() == expected.tobytes()

    components = st.one_of(
        st.floats(allow_nan=False), st.integers(-10 ** 6, 10 ** 6), st.booleans(),
        st.sampled_from(["1e-1", "-2.5", "nan", "inf", " 3 ", "x", "", "1,5"]), st.none())
    pairs = st.one_of(st.lists(components, min_size=2, max_size=2),
                      st.tuples(components, components),
                      st.lists(components, min_size=0, max_size=3), components)

    @given(entries=st.one_of(st.lists(pairs, min_size=0, max_size=8),
                             st.tuples(pairs, pairs), components))
    @settings(max_examples=500, deadline=None)
    def test_same_values_and_errors_as_the_per_pair_build(self, entries):
        assert (self.outcome(parse_vector, entries)
                == self.outcome(self.per_pair_vector, entries))


class TestBuildModelSpec:
    def test_minimal_ghz(self):
        spec = build_model_spec({"state": {"ghz": {"n": 2}}})
        assert spec.n_qubits == 2
        assert spec.model.dim == 4
        assert spec.nu == 1 and spec.seed == 0 and spec.trials == 100
        assert spec.phis.tolist() == [0.0]
        # default parametrization is the collective z generator
        jz = np.diag([1.0, 0.0, 0.0, -1.0])
        assert np.allclose(spec.model.generator.matrix, jz, atol=1e-15)
        assert spec.model.generator.diagonal.tolist() == [1.0, 0.0, 0.0, -1.0]
        named = build_model_spec({"state": {"ghz": {"n": 2}},
                                  "parametrization": {"generator": "half_sigma_z_sum"}})
        assert named.model.generator.diagonal.tolist() == [1.0, 0.0, 0.0, -1.0]

    def test_phi_expression_and_range(self):
        spec = build_model_spec({"state": {"ghz": {"n": 1}}, "phi": "pi/8"})
        assert spec.phis[0] == pytest.approx(math.pi / 8)
        spec = build_model_spec({"state": {"ghz": {"n": 1}},
                                 "phi": {"start": 0, "stop": "pi", "steps": 5}})
        assert spec.phi_is_range
        assert np.allclose(spec.phis, np.linspace(0, math.pi, 5))

    def test_observable_forms(self):
        base = {"state": {"ghz": {"n": 2}}}
        quad = build_model_spec({**base, "observable": {"pauli_product": {"a1": 1}}})
        assert quad.observable.product_form == ((0.0, 1.0, 0.0, 0.0),) * 2
        per_site = build_model_spec({**base, "observable": {
            "pauli_product": [{"a1": 1}, {"a2": 1}]}})
        assert per_site.observable.product_form == (
            (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
        parity = build_model_spec({**base, "observable": {"parity": True}})
        assert np.array_equal(parity.observable.matrix,
                              np.diag([1, -1, -1, 1]).astype(complex))
        custom = build_model_spec({**base, "observable": {"custom": [
            [0, 0], [1, 0], [0, 0], [0, 0],
            [1, 0], [0, 0], [0, 0], [0, 0],
            [0, 0], [0, 0], [0, 0], [1, 0],
            [0, 0], [0, 0], [1, 0], [0, 0]]}})
        assert custom.observable.dim == 4

    def test_povm_forms(self):
        base = {"state": {"ghz": {"n": 2}},
                "observable": {"pauli_product": {"a1": 1}}}
        for name, outcomes in (("x_basis_product", 4), ("y_basis_product", 4),
                               ("eigenprojectors_of_observable", 2)):
            spec = build_model_spec({**base, "povm": name})
            assert len(spec.povm) == outcomes
        custom = build_model_spec({
            "state": {"ghz": {"n": 1}},
            "povm": {"custom": {"elements": [
                [[1, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [1, 0]]],
                "labels": ["up", "down"]}}})
        assert custom.povm.labels == ("up", "down")

    def test_custom_state_with_generator_matrix(self):
        spec = build_model_spec({
            "state": {"custom": {"amplitudes": [[1, 0], [0, 0], [0, 0]]}},
            "parametrization": {"generator": {"matrix": [
                [1, 0], [0, 0], [0, 0],
                [0, 0], [0, 0], [0, 0],
                [0, 0], [0, 0], [-1, 0]]}}})
        assert spec.model.dim == 3
        assert spec.n_qubits is None
        assert spec.model.generator.diagonal.tolist() == [1.0, 0.0, -1.0]

    def test_tolerance_overrides(self):
        spec = build_model_spec({"state": {"ghz": {"n": 1}},
                                 "tolerances": {"optimality": 1e-6}})
        assert spec.tolerances == {"optimality": 1e-6}


IDENTITY_3 = [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]
QUTRIT = {"custom": {"amplitudes": [[1, 0], [0, 0], [0, 0]]}}
QUTRIT_Z = {"generator": {"matrix": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0],
                                     [0, 0], [0, 0], [0, 0], [-1, 0]]}}


class TestSpecErrors:
    @pytest.mark.parametrize("data,field_part", [
        ({"state": {"ghz": {"n": 0}}}, "state.ghz.n"),
        ({"state": {"ghz": {"n": 2}}, "bogus": 1}, "bogus"),
        ({}, "state"),
        ({"state": {"ghz": {"n": 2}},
          "parametrization": {"blackbox": True}}, "blackbox"),
        ({"state": {"ghz": {"n": 2}}, "phi": {"start": 0, "stop": 1, "steps": 1}},
         "phi.steps"),
        ({"state": {"ghz": {"n": 2}}, "nu": -3}, "nu"),
        ({"state": {"ghz": {"n": 2}}, "tolerances": {"typo": 1e-8}},
         "tolerances.typo"),
        ({"state": {"ghz": {"n": 2}},
          "observable": {"pauli_product": [{"a1": 1}]}}, "pauli_product"),
        ({"state": {"ghz": {"n": 2}}, "povm": "no_such_povm"}, "povm"),
        ({"state": {"ghz": {"n": 2}}, "povm": "eigenprojectors_of_observable"},
         "povm"),
        ({"state": {"custom": {"amplitudes": [[1, 0], [1, 0]]}}},
         "state.custom.amplitudes"),
        ({"state": {"ghz": {"n": 2}}, "tolerances": {"slope": 1e-8}},
         "tolerances.slope"),
        ({"state": {"ghz": {"n": 2}}, "tolerances": {"support_cutoff": 1e-12}},
         "tolerances.support_cutoff"),
        ({"state": {"ghz": {"n": 40}}}, "state.ghz.n"),
        ({"state": {"ghz": {"n": 2}},
          "observable": {"pauli_product": {"a1": "one"}}}, "pauli_product"),
        ({"state": {"ghz": {"n": 2}},
          "observable": {"pauli_product": [0, float("nan"), 0, 0]}}, "pauli_product"),
        ({"state": {"ghz": {"n": 1}},
          "povm": {"custom": {"elements": [[[1, 0], [0, 0], [0, 0], [1, 0]]],
                              "labels": 5}}}, "povm.custom.labels"),
        ({"state": {"ghz": {"n": 1}},
          "povm": {"custom": {"elements": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                                           [[0, 0], [0, 0], [0, 0], [1, 0]]],
                              "labels": "ab"}}}, "povm.custom.labels"),
        ({"state": {"foo": 1}}, "state.foo"),
        ({"state": {"ghz": {"n": 2}},
          "observable": {"parity": True, "pauli_product": {"a1": 1}}}, "observable"),
        ({"state": {"ghz": {"n": 2}}, "povm": {"foo": 1}}, "povm.foo"),
        ({"state": {"ghz": {"n": 2}}, "povm": {}}, "povm"),
        ({"state": QUTRIT}, "parametrization"),
        ({"state": QUTRIT, "parametrization": QUTRIT_Z,
          "observable": {"parity": True}}, "observable.parity"),
        ({"state": QUTRIT, "parametrization": QUTRIT_Z,
          "observable": {"pauli_product": {"a1": 1}}}, "observable.pauli_product"),
        ({"state": QUTRIT, "parametrization": QUTRIT_Z, "povm": "x_basis_product"},
         "povm"),
        ({"state": {"ghz": {"n": 2}}, "parametrization": QUTRIT_Z},
         "parametrization.generator"),
        ({"state": {"ghz": {"n": 2}}, "parametrization": {}},
         "parametrization: expected exactly one of ['generator']"),
        ({"state": {"ghz": {"n": 2}}, "parametrization": {"generator": {"foo": 1}}},
         "parametrization.generator.foo: unknown keys ['foo']; known: ['matrix']"),
        ({"state": {"ghz": {"n": 2}}, "parametrization": {"generator": {}}},
         "parametrization.generator: expected exactly one of ['matrix']"),
        ({"state": {"ghz": {"n": 2}}, "parametrization": {"generator": 3}},
         "parametrization.generator: expected 'half_sigma_z_sum' or a matrix "
         "mapping, got 3"),
        ({"state": {"ghz": {"n": 2}}, "parametrization": {"generator": "foo"}},
         "parametrization.generator: expected 'half_sigma_z_sum' or a matrix "
         "mapping, got 'foo'"),
        ({"state": {"ghz": {"n": 2}}, "observable": {"custom": IDENTITY_3}},
         "observable"),
        ({"state": {"ghz": {"n": 2}}, "povm": {"custom": {"elements": [IDENTITY_3]}}},
         "povm"),
    ])
    def test_offending_field_is_named(self, data, field_part):
        with pytest.raises(SpecFileError) as excinfo:
            build_model_spec(data)
        assert field_part in str(excinfo.value)

    def test_oversized_ghz_rejected_before_allocation(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("ghz_state must not be called")

        monkeypatch.setattr(modelspec, "ghz_state", allocate)
        with pytest.raises(SpecFileError, match="physical memory"):
            build_model_spec({"state": {"ghz": {"n": 40}}})

    def test_oversized_phase_grid_rejected_before_allocation(self, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("np.linspace must not be called")

        monkeypatch.setattr(np, "linspace", allocate)
        with pytest.raises(SpecFileError, match="physical memory") as excinfo:
            build_model_spec({"state": {"ghz": {"n": 1}},
                              "phi": {"start": 0, "stop": 1, "steps": 10 ** 18}})
        assert "phi.steps" in str(excinfo.value)

    def test_oversized_product_povm_rejected_before_allocation(self, monkeypatch):
        """On a machine with 2^19 bytes, a custom 8-qubit amplitude state
        loads with its x-basis product POVM, which builds no factor at load.
        ``cfi`` on a one-row state reads one support row of the basis and is
        admitted; on a full-support state it reads the dense 2^8 x 2^8
        factor (about 2^22.1 bytes) and is refused before the factor is
        built."""
        sysconf = os.sysconf
        memory = {"SC_PAGE_SIZE": 2 ** 12, "SC_PHYS_PAGES": 2 ** 7}
        monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or sysconf(name))
        one_row, full = ([[1.0, 0.0]] + [[0.0, 0.0]] * 255), [[2.0 ** -4, 0.0]] * 256
        one_row, full = (build_model_spec({"state": {"custom": {"amplitudes": amplitudes}},
                                           "povm": "x_basis_product"})
                         for amplitudes in (one_row, full))
        modelspec._admit(modelspec.footprint(one_row, "cfi"), "cfi")
        with pytest.raises(SpecFileError, match="physical memory") as excinfo:
            modelspec._admit(modelspec.footprint(full, "cfi"), "cfi")
        assert excinfo.value.field == "povm"
        assert "256 x 256 factor" in str(excinfo.value)
        for spec in (one_row, full):
            assert "factor" not in spec.povm.__dict__

    def test_eigenprojector_povm_rejected_before_allocation(self, monkeypatch):
        """A GHZ N=8 state's footprint is about 2^17 bytes and its product
        observable stores none; the eigenprojector POVM of a matrix
        observable diagonalises the dense 2^8 x 2^8 observable into a 2^8 x
        2^8 factor (about 2^22.4 bytes), so on a machine with 2^19 bytes it
        is refused, and so is ``sld``, whose footprint holds the dense SLD.
        The product observable's eigenprojectors load in product form, with
        no dense observable and no factor."""
        def allocate(*args):
            raise AssertionError("eigenprojector_povm must not be called")

        sysconf = os.sysconf
        memory = {"SC_PAGE_SIZE": 2 ** 12, "SC_PHYS_PAGES": 2 ** 7}
        monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or sysconf(name))
        data = {"state": {"ghz": {"n": 8}}, "observable": {"pauli_product": {"a1": 1.0}}}
        spec = build_model_spec(data)
        assert "matrix" not in spec.observable.__dict__
        product = build_model_spec({**data, "povm": "eigenprojectors_of_observable"})
        assert product.povm._site_bases is not None and "factor" not in product.povm.__dict__
        assert "matrix" not in product.observable.__dict__
        monkeypatch.setattr(modelspec, "eigenprojector_povm", allocate)
        matrix = [[float(x), 0.0] for x in np.kron(np.eye(128), [[0.0, 1.0], [1.0, 0.0]]).ravel()]
        with pytest.raises(SpecFileError, match="physical memory") as excinfo:
            build_model_spec({**data, "observable": {"custom": matrix},
                              "povm": "eigenprojectors_of_observable"})
        assert excinfo.value.field == "povm"
        with pytest.raises(SpecFileError, match="physical memory") as excinfo:
            modelspec._admit(modelspec.footprint(spec, "sld"), "sld")
        assert excinfo.value.field == "state"

    def test_ghz_bound_is_the_state_vectors(self):
        """GHZ N=20 loads: a footprint of 176 bytes per amplitude (about 2^27.5
        bytes), a diagonal generator and a product-form observable, where one
        dense operator takes 2^44."""
        spec = build_model_spec({"state": {"ghz": {"n": 20}},
                                 "observable": {"parity": True}})
        assert spec.model.dim == 2 ** 20
        assert spec.model.generator.diagonal.shape == (2 ** 20,)
        assert "matrix" not in spec.model.generator.__dict__
        assert "matrix" not in spec.observable.__dict__

    def test_generator_dimension_is_checked_before_the_observable(self):
        error = _field_error({"state": {"ghz": {"n": 2}}, "parametrization": QUTRIT_Z,
                              "observable": {"pauli_product": "not a quadruple"}})
        assert error.field == "parametrization.generator"

    def test_dimension_mismatch_between_sections(self):
        with pytest.raises(SpecFileError, match="observable"):
            build_model_spec({"state": {"ghz": {"n": 2}},
                              "observable": {"custom": [[1, 0], [0, 0],
                                                        [0, 0], [1, 0]]}})



GHZ2 = {"state": {"ghz": {"n": 2}}}


def _field_error(data) -> SpecFileError:
    with pytest.raises(SpecFileError) as excinfo:
        build_model_spec(data)
    return excinfo.value


class TestIntegerFields:
    """Every integer field has one rule: an int, not a bool, at least the
    field's minimum; the error names the field and the minimum."""

    @pytest.mark.parametrize("field,minimum,place", [
        ("state.ghz.n", 1, lambda v: {"state": {"ghz": {"n": v}}}),
        ("phi.steps", 2, lambda v: {**GHZ2, "phi": {"start": 0, "stop": 1, "steps": v}}),
        ("seed", 0, lambda v: {**GHZ2, "seed": v}),
        ("nu", 1, lambda v: {**GHZ2, "nu": v}),
        ("trials", 2, lambda v: {**GHZ2, "trials": v}),
    ])
    def test_minimum_and_type(self, field, minimum, place):
        build_model_spec(place(minimum))
        for bad in (minimum - 1, True, float(minimum), str(minimum), [minimum]):
            error = _field_error(place(bad))
            assert error.field == field
            assert str(error) == f"{field}: must be an integer >= {minimum}, got {bad!r}"

    def test_nu_beyond_int64_is_a_spec_error(self):
        """The multinomial draw takes nu as an int64: 2^63 - 1 loads, one
        more is refused by name instead of failing inside numpy."""
        assert build_model_spec({**GHZ2, "nu": 2 ** 63 - 1}).nu == 2 ** 63 - 1
        error = _field_error({**GHZ2, "nu": 2 ** 63})
        assert error.field == "nu"
        assert str(error) == f"nu: must be an integer <= {2 ** 63 - 1}, got {2 ** 63}"

    def test_null_nu_and_trials_take_the_default(self):
        spec = build_model_spec({**GHZ2, "nu": None, "trials": None})
        assert (spec.nu, spec.trials) == (1, 100)


class TestNumberFields:
    """``tolerances.*`` and the coefficient quadruples take a number or a
    string ``float()`` parses, never a bool; the field's range check follows."""

    @pytest.mark.parametrize("value", [1e-6, "1e-6", "1.0e-6", 0.000001])
    def test_tolerance(self, value):
        spec = build_model_spec({**GHZ2, "tolerances": {"optimality": value}})
        assert spec.tolerances == {"optimality": 1e-6}

    @pytest.mark.parametrize("value", [True, False, "abc", None, [1e-6]])
    def test_tolerance_not_a_number(self, value):
        error = _field_error({**GHZ2, "tolerances": {"optimality": value}})
        assert str(error) == f"tolerances.optimality: expected a number, got {value!r}"

    @pytest.mark.parametrize("value", ["nan", "-1e-6", "inf", 0])
    def test_tolerance_out_of_range(self, value):
        error = _field_error({**GHZ2, "tolerances": {"optimality": value}})
        assert str(error) == "tolerances.optimality: must be a positive finite number"

    @pytest.mark.parametrize("entry", [{"a1": "1e-1"}, {"a1": 0.1}, [0, "1e-1", 0, 0]])
    def test_coefficient(self, entry):
        spec = build_model_spec({**GHZ2, "observable": {"pauli_product": entry}})
        reference = build_model_spec({**GHZ2, "observable": {"pauli_product": {"a1": 0.1}}})
        assert np.array_equal(spec.observable.matrix, reference.observable.matrix)

    @pytest.mark.parametrize("value", [True, "abc", None])
    def test_coefficient_not_a_number(self, value):
        error = _field_error({**GHZ2, "observable": {"pauli_product": {"a1": value}}})
        assert str(error) == f"observable.pauli_product: expected a number, got {value!r}"
        error = _field_error({**GHZ2, "observable": {
            "pauli_product": [{"a1": 1}, {"a2": value}]}})
        assert error.field == "observable.pauli_product[1]"

    def test_coefficient_must_be_finite(self):
        error = _field_error({**GHZ2, "observable": {"pauli_product": {"a1": "inf"}}})
        assert error.field == "observable.pauli_product"
        assert "must be finite" in str(error)

    def test_matrix_entry(self):
        def density(entry):
            data = {"state": {"custom": {"density": [entry, [0, 0], [0, 0], [0.9, 0]]}}}
            return build_model_spec(data).model.initial_state.matrix

        assert np.array_equal(density(["1e-1", 0]), density([0.1, 0]))
        assert np.array_equal(density([0.1, "0e0"]), density([0.1, 0]))

    def test_exponent_without_dot_from_yaml(self, tmp_path):
        """YAML 1.1 reads ``1e-6`` as a string and ``1.0e-6`` as a float."""
        path = tmp_path / "spec.yaml"
        path.write_text("state:\n  ghz: {n: 2}\n"
                        "observable:\n  pauli_product: {a1: 1e-1}\n"
                        "tolerances: {optimality: 1e-6}\n", encoding="utf-8")
        for loader in (modelspec._Loader, yaml.SafeLoader):
            assert yaml.load(path.read_text(), Loader=loader)["tolerances"] == {
                "optimality": "1e-6"}
        assert load_model_spec(str(path)).tolerances == {"optimality": 1e-6}


class TestUnknownKeys:
    """Every mapping rejects keys it does not know, naming the key's path."""

    @pytest.mark.parametrize("data,field", [
        ({**GHZ2, "foo": 1}, "foo"),
        ({**GHZ2, "phi": {"start": 0, "stop": 1, "steps": 3, "foo": 1}}, "phi.foo"),
        ({**GHZ2, "observable": {"pauli_product": {"a1": 1, "a4": 1}}},
         "observable.pauli_product.a4"),
        ({**GHZ2, "observable": {"pauli_product": [{"a1": 1}, {"b": 1}]}},
         "observable.pauli_product[1].b"),
        ({**GHZ2, "tolerances": {"typo": 1e-8}}, "tolerances.typo"),
    ])
    def test_key_is_named(self, data, field):
        error = _field_error(data)
        assert error.field == field
        assert str(error).startswith(f"{field}: unknown keys ['{field.rsplit('.')[-1]}']")


@pytest.fixture
def python_yaml_loader(monkeypatch):
    """Load specs with PyYAML's pure-Python parser, as without libyaml."""
    monkeypatch.setattr(modelspec, "_Loader", yaml.SafeLoader)


class TestLoadFromFile:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "state:\n  ghz: {n: 2}\n"
            "observable:\n  pauli_product: {a1: 1}\n"
            "povm: x_basis_product\n"
            "phi: pi/8\nnu: 1000\nseed: 5\ntrials: 20\n",
            encoding="utf-8")
        spec = load_model_spec(str(path))
        assert spec.nu == 1000 and spec.seed == 5 and spec.trials == 20
        assert spec.phis[0] == pytest.approx(math.pi / 8)

    def test_yaml_round_trip_without_libyaml(self, tmp_path, python_yaml_loader):
        self.test_yaml_round_trip(tmp_path)

    def test_missing_file(self):
        with pytest.raises(SpecFileError, match="cannot read"):
            load_model_spec("/nonexistent/spec.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("state: [unbalanced", encoding="utf-8")
        with pytest.raises(SpecFileError, match="invalid YAML"):
            load_model_spec(str(path))

    def test_invalid_yaml_without_libyaml(self, tmp_path, python_yaml_loader):
        self.test_invalid_yaml(tmp_path)

    def test_libyaml_parser_when_available(self):
        assert modelspec._Loader is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    def test_both_parsers_build_the_same_data(self):
        values = np.random.default_rng(5).normal(size=(16, 2)).tolist()
        text = yaml.safe_dump({"state": {"custom": {"density": values}},
                               "phi": "pi/8", "nu": 1000, "povm": "x_basis_product"})
        assert (yaml.load(text, Loader=modelspec._Loader)
                == yaml.load(text, Loader=yaml.SafeLoader))


def _merge_key_file(path, entries=300, merges=300):
    """An anchored mapping of ``entries`` keys merged into ``merges`` mappings:
    a file of some 25 KB at 1,000 of each, whose merged copies held 36 MB
    while they were constructed."""
    lines = ["a: &a {" + ", ".join(f"k{i}: {i}" for i in range(entries)) + "}"]
    lines += [f"b{i}: {{<<: *a}}" for i in range(merges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestAliases:
    """A spec writes every node out: an alias, and so a merge key that
    copies an anchored mapping, is refused at its first reuse (exit 2)."""

    @pytest.fixture(params=["libyaml", "python"])
    def loader(self, request, monkeypatch):
        if request.param == "python":
            monkeypatch.setattr(modelspec, "_Loader", yaml.SafeLoader)

    @pytest.fixture
    def constructed(self, monkeypatch):
        """The nodes each loader construction builds."""
        nodes = []
        construct = yaml.constructor.BaseConstructor.construct_object

        def counting(self, node, deep=False):
            nodes.append(node)
            return construct(self, node, deep)

        monkeypatch.setattr(yaml.constructor.BaseConstructor, "construct_object", counting)
        return nodes

    def test_merge_keys_are_refused_before_their_copies(self, tmp_path, loader,
                                                         constructed):
        path = _merge_key_file(tmp_path / "merge.yaml")
        with pytest.raises(SpecFileError, match="invalid YAML.*alias or merge key"):
            load_model_spec(path)
        # the document, its 301 keys and values and the anchored mapping's 300
        # pairs: not one merged copy, which would add 600 nodes per mapping
        assert len(constructed) == 1 + 2 * 301 + 2 * 300

    def test_plain_alias_is_refused(self, tmp_path, loader):
        path = tmp_path / "alias.yaml"
        path.write_text("state: {ghz: {n: 2}}\nphi: &p 0.3\nnu: *p\n", encoding="utf-8")
        with pytest.raises(SpecFileError, match="alias or merge key"):
            load_model_spec(str(path))

    def test_exit_two(self, tmp_path):
        from click.testing import CliRunner

        from qcrb_lab.cli import main

        path = _merge_key_file(tmp_path / "merge.yaml", 1000, 1000)
        result = CliRunner().invoke(main, ["qfi", "--model", path])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"specification error: invalid YAML in {path!r}")

    def test_unused_anchor_and_inline_merge_load(self, tmp_path, loader):
        path = tmp_path / "inline.yaml"
        path.write_text("state: &s {ghz: {n: 2}}\n"
                        "phi: {<<: {start: 0, stop: 1}, steps: 3}\n", encoding="utf-8")
        spec = load_model_spec(str(path))
        assert spec.model.dim == 4 and spec.phis.tolist() == [0.0, 0.5, 1.0]
