"""Fixed algebra data each workload builds once before its first op.

quatwitt is imported inside `fixed_data`, so that `setup_probe.py` can time
`import quatwitt` plus this data from a fresh interpreter.
"""

from workloads import DIVISION_ALGEBRAS, SPLIT_ALGEBRAS


def fixed_data(workload: str) -> dict:
    import quatwitt as Q
    from quatwitt.funcfield import conic_parametrize, kernel_generator
    from quatwitt.invariants import n_q_class

    data = {"algebras": {}, "nilpotent": {}, "alt_nilpotent": {},
            "conic": {}, "kernel": {}, "n_q": {}}
    if workload == "wq-forms":
        return data
    if workload == "mixed-split":
        for a, b in SPLIT_ALGEBRAS:
            A = Q.QuatAlgebra(a, b)
            z0 = Q.find_nilpotent(A)
            # a second nilpotent q z0 q^-1, for checks along another
            # Morita transfer than the one mixed_equal uses
            q = A.element(1, 1, 1, 0)
            qinv = q.conj().scale(1 / q.nrd())
            data["algebras"][(a, b)] = A
            data["nilpotent"][(a, b)] = z0
            data["alt_nilpotent"][(a, b)] = q * z0 * qinv
            data["conic"][(a, b)] = conic_parametrize(A)
            data["kernel"][(a, b)] = kernel_generator(A)
        D = Q.QuatAlgebra(-1, -1)
        data["algebras"][(-1, -1)] = D
        data["n_q"][(-1, -1)] = n_q_class(D)
        return data
    if workload == "division-certify":
        for a, b in DIVISION_ALGEBRAS:
            A = Q.QuatAlgebra(a, b)
            if Q.is_split(A):
                raise ValueError(f"{A!r} is split; the workload needs a "
                                 "division algebra")
            data["algebras"][(a, b)] = A
            data["n_q"][(a, b)] = n_q_class(A)
        return data
    raise ValueError(f"unknown workload {workload!r}")
