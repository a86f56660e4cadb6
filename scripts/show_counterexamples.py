"""Print both inequality-breaking measurements in human-readable form."""

import numpy as np

from decobs.entropy import entropies_of_spectra, entropy, expected_entropy_stack, to_bits, von_neumann
from decobs.povm import apply_povm, counterexample_1, counterexample_2, is_purity_preserving
from decobs.stacks import average_stack
from decobs.states import DensityMatrix


def show(name, measurement, initial, broken_side):
    vn = von_neumann()
    probs, states, spectra = apply_povm(initial, measurement)
    live = probs > 0
    before = entropy(initial, vn)
    after_observation = float(expected_entropy_stack(probs[live], entropies_of_spectra(spectra, (vn,))[0]))
    after_average = entropy(DensityMatrix(average_stack(probs[live], states[live])), vn)

    print(f"=== {name} (breaks the {broken_side} inequality) ===")
    print(f"input state:\n{np.array_str(initial.mat, precision=3, suppress_small=True)}")
    print(f"branch probabilities: {[round(p, 12) for p in probs.tolist()]}")
    for k in np.flatnonzero(live).tolist():
        mat = np.array_str(states[k], precision=3, suppress_small=True)
        print(f"branch {k}:\n{mat}")
    print(f"entropy before:                {before:.6f} nats ({to_bits(before):.3f} bits)")
    print(f"expected entropy (observation): {after_observation:.6f} nats ({to_bits(after_observation):.3f} bits)")
    print(f"entropy of average (decoherence): {after_average:.6f} nats ({to_bits(after_average):.3f} bits)")
    print(f"purity preserving: {is_purity_preserving(measurement)}")
    print()


def main() -> int:
    m1, r1 = counterexample_1()
    show("Bell-basis joint readout", m1, r1, "observation")
    m2, r2 = counterexample_2()
    show("swap-and-read ancilla overwrite", m2, r2, "decoherence")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
