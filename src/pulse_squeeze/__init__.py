"""Traveling quantum pulses through quadratic optical elements.

Builds the transfer kernels of pulse-pumped and single-pass parametric
amplifiers, decomposes the output field into seeded and squeezed-vacuum
modes, and reconstructs the exact quantum state of any output wave packet.
"""

__version__ = "0.1.0"

from .charfun import (
    CharFunction,
    CharGrid,
    GaussianChannel,
    WignerGrid,
    char_of_state,
    fock_from_char,
    propagate_char,
    wigner_from_char,
)
from .coherence import (
    InputMoments,
    ModeSpectrum,
    g1_total,
    input_moments,
    occupation_ratio,
    seeded_vacuum_split,
    single_mode_condition,
)
from .decomposition import (
    OutputDecomposition,
    bloch_messiah_params,
    decompose_output_mode,
)
from .devices import (
    GaussianPump,
    OpaParams,
    OpoParams,
    TwpaParams,
    build_opa,
    build_opo,
    build_twpa,
    default_opo_grid,
)
from .grids import (
    HermitianKernel,
    ModeFunction,
    TemporalGrid,
    gaussian_mode,
    inner_product,
    normalize,
    orthogonal_complement,
)
from .kernels import (
    BogoliubovKernels,
    apply_to_mode,
    compose,
    ideal_squeezer_kernels,
    identity_kernels,
    pullback_output_mode,
    verify_symplectic,
)
from .metrics import (
    SqueezeFitResult,
    fidelity,
    mean_photon_number,
    optimize_squeeze_fidelity,
    purity,
    quadrature_variance,
)
from .states import (
    QuantumState,
    coherent_state,
    even_cat_state,
    fock_state,
    squeezed_state,
    vacuum_state,
)
