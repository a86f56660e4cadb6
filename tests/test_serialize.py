import json

import numpy as np
import pytest

from decobs import matcore, serialize, states
from decobs.errors import ValidationError
from decobs.povm import apply_povm, counterexample_1, probing_as_povm
from decobs.processes import observe
from decobs.states import basis_state


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

    def test_rejects_bool_shape(self):
        with pytest.raises(ValidationError) as err:
            serialize.matrix_from_json({"rows": True, "cols": 1, "data": [[1.0, 0.0]]})
        assert err.value.invariant == "json-matrix-shape"

    def test_json_serializable(self):
        rho = states.random_density(3, np.random.default_rng(0))
        text = json.dumps(serialize.density_to_json(rho))
        back = serialize.density_from_json(json.loads(text))
        assert matcore.max_abs(back.mat - rho.mat) == 0.0


class TestTypedRoundTrips:
    def test_density(self):
        rho = states.random_density(2, np.random.default_rng(1))
        obj = serialize.density_to_json(rho)
        assert obj["kind"] == "density"
        assert matcore.max_abs(serialize.density_from_json(obj).mat - rho.mat) == 0.0

    def test_pure(self):
        v = states.random_pure(3, np.random.default_rng(2))
        back = serialize.pure_from_json(serialize.pure_to_json(v))
        assert matcore.max_abs(back.amp - v.amp) == 0.0

    def test_gram(self):
        gram = states.random_gram(3, 2, np.random.default_rng(3))
        back = serialize.gram_from_json(serialize.gram_to_json(gram))
        assert matcore.max_abs(back.mat - gram.mat) == 0.0

    def test_probing(self):
        probe = states.random_probing(2, 3, np.random.default_rng(4))
        back = serialize.probing_from_json(serialize.probing_to_json(probe))
        assert matcore.max_abs(back.mat - probe.mat) == 0.0

    def test_projector_set(self):
        partition = states.random_projector_partition(4, [1, 3], np.random.default_rng(5))
        back = serialize.projector_set_from_json(serialize.projector_set_to_json(partition))
        for mine, ref in zip(back, partition):
            assert matcore.max_abs(mine - ref) == 0.0

    def test_kind_mismatch_rejected(self):
        rho = states.random_density(2, np.random.default_rng(6))
        with pytest.raises(ValidationError):
            serialize.gram_from_json(serialize.density_to_json(rho))


class TestEnsembleRoundTrip:
    def test_with_dead_branch(self):
        measurement, initial = counterexample_1()
        ens = apply_povm(initial, measurement)
        obj = serialize.ensemble_to_json(ens)
        assert obj["outcomes"][2]["state"] is None
        back = serialize.ensemble_from_json(obj)
        assert [o.probability for o in back] == [o.probability for o in ens]
        assert back.outcomes[3].state is None

    @pytest.mark.parametrize("p", ["0.5", None, True, [0.5], 10**400])
    def test_rejects_non_numeric_probability(self, p):
        obj = {"kind": "ensemble", "outcomes": [{"p": p, "state": None}]}
        with pytest.raises(ValidationError) as err:
            serialize.ensemble_from_json(obj)
        assert err.value.invariant == "json-outcome"

    def test_live_states_survive(self):
        rng = np.random.default_rng(8)
        ens = observe(states.random_density(2, rng), states.random_probing(2, 2, rng))
        back = serialize.ensemble_from_json(serialize.ensemble_to_json(ens))
        for mine, ref in zip(back.live(), ens.live()):
            assert matcore.max_abs(mine.state.mat - ref.state.mat) == 0.0


class TestPovmRoundTrip:
    def test_counterexample_file(self, tmp_path):
        measurement, _ = counterexample_1()
        path = tmp_path / "measurement.json"
        path.write_text(json.dumps(serialize.povm_to_json(measurement)))
        back = serialize.load_povm(str(path))
        assert back.object_dim == 2 and back.ancilla_dim == 2
        assert matcore.max_abs(back.joint_unitary - measurement.joint_unitary) == 0.0

    def test_probing_lift_round_trip(self):
        responses = [basis_state(2, 0), basis_state(2, 1)]
        measurement = probing_as_povm(responses)
        back = serialize.povm_from_json(serialize.povm_to_json(measurement))
        for mine, ref in zip(back.joint_projectors, measurement.joint_projectors):
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
