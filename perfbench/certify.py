"""Library program of the certify_random workload.

Reads measurement configurations, one per line as 12 floats (a, a', b, b'),
and prints one line of 7 floats per configuration:

    ||B||  ||[A,A'](x)[B,B']||  identity deviation  quantum value
    vector value  vector bound  ||ga commutator(a, a')||

Every call goes through a module attribute (``quantum.operator_norm``, not a
name imported into this module), so the traced run can wrap the package's
entry points from outside.

Usage: python3 perfbench/certify.py VECTORS
"""

from __future__ import annotations

import sys

from chshbounds import ga, geometry, quantum, vector_values


def read_quadruples(path: str) -> list[tuple[tuple[float, float, float], ...]]:
    quadruples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            x = [float(v) for v in line.split()]
            if len(x) != 12:
                raise ValueError(f"{path}: expected 12 floats per line, got {len(x)}")
            quadruples.append((tuple(x[0:3]), tuple(x[3:6]), tuple(x[6:9]), tuple(x[9:12])))
    return quadruples


def certify(quadruples) -> str:
    ones = vector_values.ResponseCoefficients.ones()
    lines = []
    for a, a_prime, b, b_prime in quadruples:
        cfg = geometry.Configuration.from_vectors(a, a_prime, b, b_prime)
        norm_b = quantum.operator_norm(quantum.chsh_operator(cfg))
        comm_a = quantum.commutator_matrix(
            quantum.spin_operator(cfg.a), quantum.spin_operator(cfg.a_prime)
        )
        comm_b = quantum.commutator_matrix(
            quantum.spin_operator(cfg.b), quantum.spin_operator(cfg.b_prime)
        )
        norm_c = quantum.operator_norm(quantum.tensor_product(comm_a, comm_b))
        values = (
            norm_b,
            norm_c,
            quantum.chsh_squared_identity_deviation(cfg),
            quantum.chsh_quantum_value(cfg),
            vector_values.chsh_vector_value(cfg, ones),
            vector_values.vector_bound_expression(cfg.b, cfg.b_prime, 1.0, 1.0),
            ga.commutator(
                ga.Multivector.from_vector(cfg.a), ga.Multivector.from_vector(cfg.a_prime)
            ).norm(),
        )
        lines.append(" ".join(format(v, ".17g") for v in values))
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: certify.py VECTORS", file=sys.stderr)
        return 2
    sys.stdout.write(certify(read_quadruples(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
