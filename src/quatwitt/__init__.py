"""Exact computer algebra for the mixed Witt ring of a quaternion algebra
with its canonical involution: Witt rings of quadratic forms over Q and F_p,
anti-hermitian forms, lambda operations, Morita transfer, residues over Q(t)
and the module of formal invariants sum x_d lambda^d.
"""

from .errors import QuatWittError
from .fields import (
    Fp,
    QQ,
    FieldSpec,
    factorize,
    hilbert_symbol,
    legendre_symbol,
    square_class,
    squarefree_part,
)
from .quadforms import (
    GroupRingElem,
    QuadForm,
    WittClass,
    diagonalize,
    hyperbolic,
    is_isotropic,
    is_witt_zero,
    pfister,
    qf,
    signature,
    signed_disc,
    witt_class,
    witt_equal,
    witt_invariants,
    witt_zero,
)
from .quaternions import (
    QuatAlgebra,
    Quaternion,
    draw_pure,
    find_nilpotent,
    is_split,
    norm_form,
    ramified_places,
)
from .hermitian import (
    AntiHermForm,
    herm_diag,
    herm_verdict,
    hyperbolicity_certificate,
    morita_transfer,
)
from .mixed import (
    MixedClass,
    mixed,
    mixed_equal,
    mixed_even,
    mixed_odd,
    mixed_one,
    mixed_zero,
    odd_product_closed_form,
    phi_z0,
    twisted_trace_form,
)
from .invariants import (
    LambdaInvariant,
    chi,
    eval_invariant,
    invariant_equal,
    is_constant_invariant,
    lambda_herm,
    nq_membership,
    versal_sample_check,
)
from .funcfield import (
    ConicData,
    FunctionFieldForm,
    Place,
    conic_parametrize,
    ff_form,
    kernel_generator,
    kt_witt_equal,
    psi_split,
    residue,
    conic_w0_places,
    w0_membership,
)
from .serialize import parse_input, serialize
from .suites import Report, RunConfig, emit_report, run_suite

__version__ = "0.1.0"
