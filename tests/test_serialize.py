import json

import numpy as np
import pytest

from decobs import matcore, sampling, serialize, stacks, states
from decobs.errors import ValidationError
from decobs.povm import counterexample_1


class TestMatrixRoundTrip:
    def test_layout(self):
        mat = np.array([[1.0 + 2.0j, 3.0], [4.0, 5.0 - 1.0j]])
        obj = serialize.matrix_to_json(mat)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"][0] == [1.0, 2.0]
        assert obj["data"][1] == [3.0, 0.0]
        back = serialize.matrix_from_json(obj)
        assert matcore.max_abs(back - mat) == 0.0

    def test_vector_becomes_column(self):
        obj = serialize.matrix_to_json(np.array([1.0, 0.0]))
        assert obj["rows"] == 2 and obj["cols"] == 1

    def test_rejects_missing_keys(self):
        with pytest.raises(ValidationError) as err:
            serialize.matrix_from_json({"rows": 2, "cols": 2})
        assert "data" in str(err.value)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            serialize.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_rejects_bad_entry(self):
        with pytest.raises(ValidationError):
            serialize.matrix_from_json({"rows": 1, "cols": 1, "data": [[1.0]]})

    @pytest.mark.parametrize("obj", [[[1.0, 0.0]], "matrix", None], ids=["list", "string", "null"])
    def test_rejects_non_object(self, obj):
        with pytest.raises(ValidationError) as err:
            serialize.matrix_from_json(obj, "m")
        assert err.value.invariant == "json-matrix-object"
        assert "m: expected an object" in str(err.value)

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("inf")], [-float("inf"), 0.0]])
    def test_rejects_non_finite_entry(self, entry):
        # json reads NaN and Infinity as floats, so they pass the entry check
        obj = json.loads(json.dumps({"rows": 1, "cols": 2, "data": [[1.0, 0.0], entry]}))
        with pytest.raises(ValidationError) as err:
            serialize.matrix_from_json(obj)
        assert err.value.invariant == "json-matrix-finite"

    def test_rejects_bool_shape(self):
        with pytest.raises(ValidationError) as err:
            serialize.matrix_from_json({"rows": True, "cols": 1, "data": [[1.0, 0.0]]})
        assert err.value.invariant == "json-matrix-shape"

    def test_json_serializable(self):
        rho = states.random_density(3, np.random.default_rng(0))
        text = json.dumps(serialize.matrix_to_json(rho.mat))
        back = serialize.matrix_from_json(json.loads(text))
        assert matcore.max_abs(back - rho.mat) == 0.0

    @pytest.mark.parametrize(
        "value", ["0.5", None, True, [0.5], 10**400], ids=["string", "null", "bool", "list", "beyond-float"]
    )
    def test_rejects_non_numeric_entry(self, value):
        with pytest.raises(ValidationError) as err:
            serialize.matrix_from_json({"rows": 1, "cols": 1, "data": [[value, 0.0]]})
        assert err.value.invariant == "json-matrix-entry"


class TestTypedRoundTrips:
    """Each kind of matrix survives the matrix format bit for bit and passes its checks again."""

    def test_density(self):
        rho = states.random_density(2, np.random.default_rng(1))
        back = states.DensityMatrix(serialize.matrix_from_json(serialize.matrix_to_json(rho.mat)))
        assert matcore.max_abs(back.mat - rho.mat) == 0.0
        assert np.array_equal(back.spectrum.view(np.uint64), rho.spectrum.view(np.uint64))

    def test_pure(self):
        v = states.random_pure(3, np.random.default_rng(2))
        obj = serialize.matrix_to_json(v.amp)
        assert (obj["rows"], obj["cols"]) == (3, 1)
        back = states.PureState(serialize.matrix_from_json(obj).reshape(-1))
        assert matcore.max_abs(back.amp - v.amp) == 0.0

    def test_gram(self):
        rows = sampling.pure_from_normals(np.random.default_rng(3).standard_normal((3, 4)), 2)
        gram = stacks.gram_from_unit_rows(rows)
        stacks.validate_stack(gram, "gram")
        back = serialize.matrix_from_json(serialize.matrix_to_json(gram))
        stacks.validate_stack(back, "gram")
        assert matcore.max_abs(back - gram) == 0.0

    def test_probing(self):
        # a 2 x 3 probing: rows and columns are not interchangeable
        probe = sampling.probing_from_normals(np.random.default_rng(4).standard_normal(12), 2, 3)
        obj = serialize.matrix_to_json(probe)
        assert (obj["rows"], obj["cols"]) == (2, 3)
        back = serialize.matrix_from_json(obj)
        stacks.validate_probing_stack(back)
        assert matcore.max_abs(back - probe) == 0.0

    def test_projector_set(self):
        partition = states.random_projector_partition(4, [1, 3], np.random.default_rng(5))
        objs = json.loads(json.dumps([serialize.matrix_to_json(p) for p in partition]))
        back = states.ProjectorSet(tuple(serialize.matrix_from_json(obj) for obj in objs))
        for mine, ref in zip(back, partition):
            assert matcore.max_abs(mine - ref) == 0.0


class TestPovmRoundTrip:
    def test_counterexample_file(self, tmp_path):
        measurement, _ = counterexample_1()
        path = tmp_path / "measurement.json"
        path.write_text(json.dumps(serialize.povm_to_json(measurement)))
        back = serialize.load_povm(str(path))
        assert back.object_dim == 2 and back.ancilla_dim == 2
        assert matcore.max_abs(back.joint_unitary - measurement.joint_unitary) == 0.0

    def test_probing_lift_round_trip(self, cnot_probing):
        back = serialize.povm_from_json(serialize.povm_to_json(cnot_probing))
        for mine, ref in zip(back.joint_projectors, cnot_probing.joint_projectors):
            assert matcore.max_abs(mine - ref) == 0.0

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"object_dim\": 2,\n")
        with pytest.raises(ValidationError) as err:
            serialize.load_povm(str(path))
        assert "line" in str(err.value)

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError) as err:
            serialize.povm_from_json({"object_dim": 2})
        assert "ancilla_dim" in str(err.value)

    @pytest.mark.parametrize("obj", [[], "povm", 2], ids=["list", "string", "number"])
    def test_rejects_non_object(self, obj):
        with pytest.raises(ValidationError) as err:
            serialize.povm_from_json(obj)
        assert err.value.invariant == "json-povm-object"

    @pytest.mark.parametrize("projectors", [[], {}, "P"], ids=["empty", "object", "string"])
    def test_rejects_projectors_that_are_not_a_non_empty_list(self, projectors):
        measurement, _ = counterexample_1()
        obj = serialize.povm_to_json(measurement)
        obj["projectors"] = projectors
        with pytest.raises(ValidationError) as err:
            serialize.povm_from_json(obj)
        assert err.value.invariant == "json-povm-projectors"
